"""Paths, environments and timed child processes for the benchmark.

Every program run is a real subprocess with the checkout's ``src`` on
``PYTHONPATH``; its wall time runs from spawn to exit and its peak RSS
and CPU time come from ``os.wait4``.  Temporary files the program makes
land in the run's own directory inside the checkout.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TRACE_HOOK = os.path.join(BENCH, "trace")
GOLDEN = os.path.join(BENCH, "golden")
#: scratch space of every run, removed when the run ends (git-ignored)
WORK = os.path.join(BENCH, "_work")
#: the last traced run of each workload leaves its artefacts here
TRACE_OUT = os.path.join(WORK, "traces")

#: the program's own default seed (``repro._rng.DEFAULT_SEED``)
DEFAULT_SEED = 20140324


def program_env(tmp: str, trace_dir: Optional[str] = None) -> Dict[str, str]:
    """The environment a program run gets.

    Settings that would change what the program does (``REPRO_*``) or
    how this benchmark measures it are dropped.  ``trace_dir`` puts the
    import hook first on ``PYTHONPATH`` and turns on ``-X importtime``.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_")
        and k not in ("BENCH_TRACE_DIR", "PYTHONPROFILEIMPORTTIME", "PYTHONPATH")
    }
    env["PYTHONPATH"] = SRC if trace_dir is None else os.pathsep.join((TRACE_HOOK, SRC))
    env["TMPDIR"] = tmp
    if trace_dir is not None:
        env["BENCH_TRACE_DIR"] = trace_dir
        env["PYTHONPROFILEIMPORTTIME"] = "1"
    return env


@dataclass
class Invocation:
    """One finished child process."""

    argv: List[str]
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    returncode: int
    timed_out: bool
    stdout: bytes
    stderr: str
    trace_dir: Optional[str] = None


def run_process(
    argv: List[str], env: Dict[str, str], out_dir: str, timeout: float, tag: str
) -> Invocation:
    """Run ``argv`` to completion, killing it after ``timeout`` seconds.

    Output goes to files so a chatty child never blocks on a pipe.
    """
    out_path = os.path.join(out_dir, f"{tag}.out")
    err_path = os.path.join(out_dir, f"{tag}.err")
    fired = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill() -> None:
            fired.set()
            proc.kill()

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    return Invocation(
        argv=argv,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        timed_out=fired.is_set(),
        stdout=stdout,
        stderr=stderr,
    )


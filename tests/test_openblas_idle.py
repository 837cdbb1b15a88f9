"""``import repro`` keeps an idle OpenBLAS worker from spinning.

By default an idle OpenBLAS worker busy-waits for 2**28 cycles after it
is created and after every threaded call.  ``repro/__init__.py`` sets
``OPENBLAS_THREAD_TIMEOUT=4`` before numpy loads, unless the user set it,
so the worker sleeps at once; the thread count stays as it was.  Each
check runs in a fresh interpreter, since OpenBLAS reads the variable only
when numpy loads it.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

# CPU seconds of every thread but the main one, read from /proc/self/task
WORKER_CPU = """
    import os
    me = os.getpid()
    tick = os.sysconf("SC_CLK_TCK")
    workers = [t for t in os.listdir("/proc/self/task") if int(t) != me]
    cpu = 0.0
    for tid in workers:
        with open(f"/proc/self/task/{tid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        cpu += (int(fields[11]) + int(fields[12])) / tick
    print(len(workers), cpu)
"""


def _run(script: str, **env: str) -> str:
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    child_env.update(env, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_sets_the_timeout_when_unset():
    assert _run("import os, repro; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])") == "4"


def test_import_keeps_the_users_timeout():
    script = "import os, repro; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    assert _run(script, OPENBLAS_THREAD_TIMEOUT="28") == "28"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_idle_worker_threads_do_not_spin():
    """Five 512 x 512 matvecs, then 0.3 s idle: the worker threads use
    almost no CPU (0.13 s under OpenBLAS's default spin on a 2-vCPU host)."""
    script = textwrap.dedent(
        """
        import repro  # first: OpenBLAS reads the variable when numpy loads
        import time
        import numpy as np
        a = np.random.default_rng(0).random((512, 512))
        v = np.ones(512)
        for _ in range(5):
            a @ v
        time.sleep(0.3)
        """
    ) + textwrap.dedent(WORKER_CPU)
    n_workers, cpu = _run(script).split()
    if int(n_workers) == 0:
        pytest.skip("numpy started no second thread")
    assert float(cpu) < 0.03

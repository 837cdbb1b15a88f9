"""The four workloads and their correctness checks.

``anchors``, ``paper_suite`` and ``sweep_mmap`` are closed loops of one
client running one CLI invocation at a time; ``fleet_tcp`` is an open
loop against ``repro serve`` (see :mod:`fleet`).  Each run reports the
end-to-end metrics with tracing off; ``--trace 1`` alternates untraced
runs with the same commands under the import hook and reports the
per-layer metrics only.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import fleet
import layers
import proc
import stats

#: set-up samples of a timed run (fresh ``import repro.cli`` processes, or
#: fresh servers for the fleet).  The first ``SETUP_BEFORE`` are taken
#: before the measured loop and the rest after it, so that their median
#: spans the host's drift over the whole run.
SETUP_SAMPLES = 7
SETUP_BEFORE = 4


@dataclass
class Result:
    """What one run of one workload measured."""

    workload: str
    seed: int
    seconds: float
    trace: int
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)

    def summary(self) -> Dict[str, object]:
        """The contract's last output line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }

    def to_dict(self) -> Dict[str, object]:
        out = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "samples": self.samples,
            "notes": self.notes,
            "problems": self.problems,
        }
        out.update(self.summary())
        return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_path(name: str, suffix: str) -> str:
    return os.path.join(proc.GOLDEN, f"{name}{suffix}")


# ---- CLI workloads -----------------------------------------------------------


@dataclass(frozen=True)
class CliWorkload:
    name: str
    args: Tuple[str, ...]
    timeout_s: float

    def argv(self, seed: int) -> List[str]:
        return [sys.executable, "-m", "repro.cli", *self.args, "--seed", str(seed)]

    def golden(self, seed: int) -> Optional[bytes]:
        """The committed default-seed stdout."""
        if seed != proc.DEFAULT_SEED:
            return None
        with open(golden_path(self.name, ".txt"), "rb") as fh:
            return fh.read()


CLI = {
    w.name: w
    for w in (
        CliWorkload("anchors", ("check-anchors",), 120.0),
        CliWorkload("paper_suite", ("run", "all"), 150.0),
        CliWorkload("sweep_mmap", ("run", "e2", "--chips", "10000", "--ros", "128", "--store", "mmap"), 150.0),
    )
}


def closed_loop(
    run_once: Callable[[int], proc.Invocation], seconds: float, minimum: int = 1
) -> List[proc.Invocation]:
    """Invoke one at a time while another fits in ``seconds``, at least
    ``minimum`` times."""
    done: List[proc.Invocation] = []
    start = time.perf_counter()
    while True:
        done.append(run_once(len(done)))
        typical = statistics.median(inv.wall_s for inv in done)
        if len(done) >= minimum and time.perf_counter() - start + typical > seconds:
            return done


def check_invocations(
    result: Result, invocations: List[proc.Invocation], expected: Optional[bytes]
) -> Optional[bytes]:
    """Count failures: a nonzero exit, a timeout, or stdout unlike
    ``expected`` (or, without one, unlike the first good invocation).
    Returns the stdout the run settled on."""
    for inv in invocations:
        result.attempted += 1
        if inv.timed_out:
            result.fail(f"timed out: {' '.join(inv.argv[1:])}")
        elif inv.returncode != 0:
            result.fail(f"exit {inv.returncode}: {' '.join(inv.argv[1:])}: {inv.stderr.strip()[-300:]}")
        elif expected is None:
            expected = inv.stdout
        elif inv.stdout != expected:
            result.fail(f"stdout differs: {' '.join(inv.argv[1:])}")
    return expected


def cli_setup(ctx: "Context", result: Result, count: int, tag: str) -> List[float]:
    """Wall times of ``count`` fresh ``import repro.cli`` processes."""
    env = proc.program_env(ctx.tmp)
    walls = []
    for k in range(count):
        inv = proc.run_process([sys.executable, "-c", "import repro.cli"], env, ctx.tmp, 60.0, f"setup-{tag}-{k}")
        result.attempted += 1
        if inv.returncode != 0 or inv.timed_out:
            result.fail(f"import repro.cli failed: {inv.stderr.strip()[-300:]}")
        walls.append(inv.wall_s)
    return walls


def record_setup(result: Result, walls: List[float]) -> None:
    result.metrics["setup_s"] = (stats.median(walls), "s")
    result.samples["setup_s"] = len(walls)


def run_cli(ctx: "Context", workload: CliWorkload, seed: int, seconds: float, trace: int) -> Result:
    result = Result(workload.name, seed, seconds, trace)
    argv = workload.argv(seed)
    env = proc.program_env(ctx.tmp)
    expected = workload.golden(seed)
    result.notes["golden"] = expected is not None

    if not trace:
        setups = cli_setup(ctx, result, SETUP_BEFORE, "before")
        runs = closed_loop(
            lambda k: proc.run_process(argv, env, ctx.tmp, workload.timeout_s, f"run-{k}"), seconds
        )
        setups += cli_setup(ctx, result, SETUP_SAMPLES - SETUP_BEFORE, "after")
        record_setup(result, setups)
        settled = check_invocations(result, runs, expected)
        result.metrics["cpu_ms_per_op"] = (stats.median([inv.cpu_s for inv in runs]) * 1e3, "ms")
        result.metrics["peak_rss_mb"] = (stats.median([inv.peak_rss_mib for inv in runs]), "MiB")
        result.samples.update(cpu_ms_per_op=len(runs), peak_rss_mb=len(runs))
        result.notes["latency_p50_ms"] = stats.median([inv.wall_s for inv in runs]) * 1e3
        result.notes["walls_s"] = [inv.wall_s for inv in runs]
        if settled is not None:
            result.notes["output_sha256"] = _sha(settled)
        return result

    # untraced and traced invocations alternate, so the host's speed,
    # which drifts over seconds, weighs on both sides alike
    def alternate(k: int) -> proc.Invocation:
        if k % 2 == 0:
            return proc.run_process(argv, env, ctx.tmp, workload.timeout_s, f"run-{k}")
        trace_dir = os.path.join(ctx.tmp, f"trace-{k}")
        os.makedirs(trace_dir)
        inv = proc.run_process(argv, proc.program_env(ctx.tmp, trace_dir), ctx.tmp, workload.timeout_s, f"traced-{k}")
        inv.trace_dir = trace_dir
        return inv

    runs = closed_loop(alternate, seconds, minimum=2)
    untraced, traced = runs[0::2], runs[1::2]
    totals = layers.LayerTotals()
    for inv in traced:
        inv.stderr = totals.add_process(inv.trace_dir, inv.wall_s, inv.stderr)
    # the hook must leave results unchanged: traced stdout is checked
    # against the golden (or the first untraced) stdout byte for byte
    settled = check_invocations(result, untraced + traced, expected)
    if settled is not None:
        result.notes["output_sha256"] = _sha(settled)
    values = totals.metrics()
    untraced_wall = stats.median([inv.wall_s for inv in untraced])
    values["latency.p50_ms"] = untraced_wall * 1e3
    values["trace.overhead_frac"] = layers.overhead(stats.median([inv.wall_s for inv in traced]), untraced_wall)
    finish_traced(ctx, result, totals, values)
    result.notes["invocations"] = {"untraced": len(untraced), "traced": len(traced)}
    return result


def finish_traced(ctx: "Context", result: Result, totals: layers.LayerTotals, values: Dict[str, float]) -> None:
    layers.check_catalog(values)
    for name, value in values.items():
        result.metrics[name] = (value, layers.CATALOG[name][0])
    result.samples.update({name: totals.processes for name in values})
    if totals.missing:
        result.notes["missing_entries"] = sorted(totals.missing)
    trace_path, layers_path = totals.write(proc.TRACE_OUT, result.workload, values)
    result.notes["chrome_trace"] = os.path.relpath(trace_path, proc.ROOT)
    result.notes["layers"] = os.path.relpath(layers_path, proc.ROOT)


# ---- the fleet ---------------------------------------------------------------

#: share of ``--seconds`` each of ``fleet.RUNG_RATES`` gets in a timed
#: run; the CPU figure comes from the last, busiest rung
TIMED_SHARES = (0.25, 0.75)
#: rung share in each of the two sessions of a traced run
TRACED_RUNG_SHARE = 0.2


def pool_size(seconds: float) -> int:
    """Requests the longest phase of a run can send."""
    per_second = max(
        [rate * share for rate, share in zip(fleet.RUNG_RATES, TIMED_SHARES)]
        + [rate * TRACED_RUNG_SHARE for rate in fleet.RUNG_RATES]
        + [fleet.RATE_CEILING * fleet.PROBE_SHARE]
    )
    return int(per_second * seconds) + 1


class Pinning:
    """Keep the load generator and the server off each other's CPU.

    With two CPUs shared by the server, the sender and the reader, a
    sender waking on a busy CPU runs milliseconds late; pinning this
    process to the last CPU and the server to the others keeps the
    generator's lateness p99 near 0.1 ms.  Servers start with every CPU,
    as they would for a user, and are pinned once they answer.  With one
    CPU nothing is pinned.
    """

    def __init__(self):
        self.original = set(os.sched_getaffinity(0))
        self.active = len(self.original) >= 2

    def __enter__(self) -> "Pinning":
        return self

    def spawn(self, start: Callable[[], fleet.Server]) -> fleet.Server:
        self.release()
        server = start()
        if self.active:
            generator = {max(self.original)}
            for tid in os.listdir(f"/proc/{server.proc.pid}/task"):
                os.sched_setaffinity(int(tid), self.original - generator)
            os.sched_setaffinity(0, generator)
        return server

    def release(self) -> None:
        if self.active:
            os.sched_setaffinity(0, self.original)

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass
class FleetRequests:
    preenroll: List[Tuple[int, bytes, str]]
    pool: List[dict]
    gaps: List[float]

    def items(self, n: int, tag: str) -> List[Tuple[int, bytes, str]]:
        return [
            (p["conn"], fleet.with_bench_id(p["line"], f"{tag}-{i}"), p["kind"])
            for i, p in enumerate(self.pool[:n])
        ]

    def offsets(self, n: int, rate: float) -> List[float]:
        out, t = [], 0.0
        for gap in self.gaps[:n]:
            out.append(t)
            t += gap / rate
        return out


def fleet_requests(ctx: "Context", seed: int, n: int) -> FleetRequests:
    path = os.path.join(ctx.tmp, "requests.json")
    inv = proc.run_process(
        [sys.executable, os.path.join(proc.BENCH, "fleetgen.py"), "--seed", str(seed), "--requests", str(n), "--out", path],
        proc.program_env(ctx.tmp),
        ctx.tmp,
        120.0,
        "fleetgen",
    )
    if inv.returncode != 0:
        raise RuntimeError(f"fleetgen failed: {inv.stderr.strip()[-500:]}")
    with open(path) as fh:
        data = json.load(fh)
    preenroll = [(0, (line + "\n").encode(), "enroll") for line in data["preenroll"]]
    return FleetRequests(preenroll, data["pool"], data["gaps"])


def fleet_golden(seed: int) -> Optional[str]:
    """Default-seed outcome letters of the request pool's prefix."""
    if seed != proc.DEFAULT_SEED:
        return None
    with open(golden_path("fleet_tcp", ".json")) as fh:
        data = json.load(fh)
    letters = ["o"] * data["requests"]
    for outcome, letter in (("rejected", "r"), ("key_recovery", "k")):
        for i in data[outcome]:
            letters[i] = letter
    return "".join(letters)


class FleetSession:
    """One ``repro serve`` process and the generator's two connections."""

    def __init__(self, ctx: "Context", result: Result, pin: Pinning, tag: str, trace_dir: Optional[str] = None):
        self.result = result
        self.server = pin.spawn(
            lambda: fleet.Server(
                sys.executable, proc.program_env(ctx.tmp, trace_dir), proc.ROOT, ctx.tmp, tag, result.seed
            )
        )
        result.attempted += 1  # its first status request
        self.socks: List = []
        self.stderr = ""

    def enroll(self, reqs: FleetRequests) -> None:
        self.socks = [self.server.connect(), self.server.connect()]
        self.record(fleet.run_phase(self.socks, reqs.preenroll, "preenroll", window=1, duration=60.0), all_sent=True)

    def record(self, phase: fleet.Phase, all_sent: bool) -> fleet.Phase:
        self.result.attempted += len(phase.kinds) if all_sent else phase.n_sent
        failures = phase.failures() + (len(phase.kinds) - phase.n_sent if all_sent else 0)
        if failures:
            self.result.fail(f"{phase.name}: {failures} request(s) without the expected reply", failures)
        return phase

    def rung(self, reqs: FleetRequests, rate: int, seconds: float) -> fleet.Phase:
        n = max(2, int(rate * seconds))
        phase = fleet.run_phase(self.socks, reqs.items(n, f"r{rate}"), f"r{rate}", offsets=reqs.offsets(n, rate))
        return self.record(phase, all_sent=True)

    def capacity(self, reqs: FleetRequests, seconds: float) -> Tuple[float, float, List[fleet.RateCheck]]:
        """Saturated throughput, then the bisected highest rate meeting
        the objective.  Returns ``(rate, saturated, probes)``."""
        span = fleet.PROBE_SHARE * seconds
        saturation = fleet.run_phase(
            self.socks, reqs.items(len(reqs.pool), "sat"), "saturation",
            window=fleet.SATURATION_WINDOW, duration=span,
        )
        self.record(saturation, all_sent=False)
        saturated = saturation.n_sent / span

        def probe(rate: float) -> fleet.RateCheck:
            n = max(2, int(rate * span))
            phase = fleet.run_phase(
                self.socks, reqs.items(n, "probe"), f"probe{rate:.0f}",
                offsets=reqs.offsets(n, rate), backlog_cap=max(100, int(rate * 0.25)),
            )
            return fleet.check_rate(self.record(phase, all_sent=False), rate)

        rate, probes = fleet.bisect_capacity(probe, saturated)
        return rate, saturated, probes

    def close(self) -> float:
        """Close the connections, stop the server, return its peak RSS (MiB)."""
        rss = self.server.peak_rss_mib() if self.server.proc.poll() is None else 0.0
        for sock in self.socks:
            sock.close()
        code, self.stderr = self.server.stop()
        if code != 0:
            self.result.fail(f"serve exited {code}")
        _, rest = layers.parse_importtime(self.stderr)
        if "Traceback" in rest:
            self.result.fail(f"serve printed a traceback: {rest.strip()[-500:]}")
        return rss


def check_outcomes(result: Result, phases: List[fleet.Phase], golden: Optional[str]) -> None:
    """Every rung sends a prefix of one pool, so rungs must agree with
    each other, and at the default seed with the golden, request by
    request."""
    longest = fleet.outcome_string(max(phases, key=lambda p: p.n_sent))
    reference = golden if golden is not None else longest
    for phase in phases:
        got = fleet.outcome_string(phase)
        if len(got) > len(reference):
            result.notes["golden_too_short"] = True
        n = min(len(got), len(reference))
        if got[:n] != reference[:n]:
            result.fail(f"{phase.name}: outcomes differ from {'the golden' if golden else 'the longest rung'}")
    result.notes["golden"] = golden is not None
    result.notes["output_sha256"] = _sha(longest.encode())
    result.notes["outcomes"] = {letter: longest.count(letter) for letter in sorted(set(longest))}


def rung_notes(phase: fleet.Phase, rate: int) -> Dict[str, object]:
    check = fleet.check_rate(phase, rate)
    if not check.valid:
        print(f"warning: rung {phase.name} is invalid (generator late or replies behind)", file=sys.stderr)
    return {**fleet.rung_summary(phase), "valid": check.valid, "late_p99_ms": check.late_p99_ms,
            "achieved_share": check.achieved_share, "requests": phase.n_sent}


def run_fleet(ctx: "Context", seed: int, seconds: float, trace: int) -> Result:
    result = Result("fleet_tcp", seed, seconds, trace)
    reqs = fleet_requests(ctx, seed, pool_size(seconds))
    golden = fleet_golden(seed)
    with Pinning() as pin:
        (fleet_traced if trace else fleet_timed)(ctx, result, pin, reqs, seconds, golden)
    return result


def server_setup(ctx, result: Result, pin: Pinning, tag: str) -> float:
    """Start a server, stop it, and return its set-up time."""
    probe = FleetSession(ctx, result, pin, tag)
    probe.close()
    return probe.server.setup_s


def fleet_timed(ctx, result: Result, pin: Pinning, reqs: FleetRequests, seconds: float, golden) -> None:
    # the measured server is the last set-up sample taken before the rungs
    setups = [server_setup(ctx, result, pin, f"before{k}") for k in range(SETUP_BEFORE - 1)]
    session = FleetSession(ctx, result, pin, "timed")
    setups.append(session.server.setup_s)
    try:
        session.enroll(reqs)
        (low_rate, high_rate), (low_share, high_share) = fleet.RUNG_RATES, TIMED_SHARES
        low = session.rung(reqs, low_rate, low_share * seconds)
        cpu0 = session.server.cpu_s()
        high = session.rung(reqs, high_rate, high_share * seconds)
        cpu = session.server.cpu_s() - cpu0
    finally:
        rss = session.close()
    setups += [server_setup(ctx, result, pin, f"after{k}") for k in range(SETUP_SAMPLES - SETUP_BEFORE)]
    check_outcomes(result, [low, high], golden)
    answered = len(high.latencies_ms(tuple(fleet.EXPECTED)))
    result.metrics["cpu_ms_per_op"] = (cpu * 1e3 / answered, "ms")
    result.metrics["peak_rss_mb"] = (rss, "MiB")
    record_setup(result, setups)
    result.samples.update(cpu_ms_per_op=answered, peak_rss_mb=1)
    result.notes["rungs"] = {low.name: rung_notes(low, low_rate), high.name: rung_notes(high, high_rate)}
    result.notes["latency_p50_ms"] = result.notes["rungs"][high.name]["all_p50_ms"]


def fleet_traced(ctx, result: Result, pin: Pinning, reqs: FleetRequests, seconds: float, golden) -> None:
    """An untraced and a traced server run side by side, rung by rung, so
    the host's drift weighs on both; the capacity search runs last, on
    the untraced one."""
    share = TRACED_RUNG_SHARE * seconds
    trace_dir = os.path.join(ctx.tmp, "trace-server")
    os.makedirs(trace_dir)
    untraced = traced = None
    try:
        untraced = FleetSession(ctx, result, pin, "untraced")
        traced = FleetSession(ctx, result, pin, "traced", trace_dir)
        untraced.enroll(reqs)
        traced.enroll(reqs)
        plain, hooked = [], []
        for rate in fleet.RUNG_RATES:
            plain.append(untraced.rung(reqs, rate, share))
            hooked.append(traced.rung(reqs, rate, share))
        capacity, saturated, probes = untraced.capacity(reqs, seconds)
    finally:
        for session in (untraced, traced):
            if session is not None:
                session.close()
    check_outcomes(result, plain + hooked, golden)

    totals = layers.LayerTotals()
    totals.add_process(trace_dir, traced.server.wall_s, traced.stderr)
    values = totals.metrics()
    for rate, phase in zip(fleet.RUNG_RATES, plain):
        summary = fleet.rung_summary(phase)
        for stat in ("auth_p50_ms", "auth_p99_ms", "key_p50_ms"):
            values[f"fleet.r{rate}.{stat}"] = summary[stat] or 0.0
    late = [x for phase in plain for x in phase.lateness_ms()]
    values["loadgen.late_p50_ms"] = stats.median(late)
    values["loadgen.late_p99_ms"] = stats.percentile(late, 0.99)
    values["fleet.max_rate_at_slo"] = capacity
    # time on the wire and in the generator: round trip minus the
    # server's own dispatch time, matched by the request's bench_id
    waits = []
    for rate, phase in zip(fleet.RUNG_RATES, hooked):
        for i in range(phase.n_sent):
            dispatch_ns = totals.by_rid.get(f"r{rate}-{i}")
            if phase.recv[i] is not None and dispatch_ns is not None:
                waits.append((phase.recv[i] - phase.sent[i]) * 1e6 - dispatch_ns / 1e3)
    values["wire.wait_p50_us"] = layers.median_or_zero(waits)
    every_kind = tuple(fleet.EXPECTED)
    values["latency.p50_ms"] = stats.median(plain[-1].latencies_ms(every_kind))
    values["trace.overhead_frac"] = layers.overhead(
        stats.median(hooked[-1].latencies_ms(every_kind)), values["latency.p50_ms"]
    )
    finish_traced(ctx, result, totals, values)
    result.notes["rungs"] = {p.name: rung_notes(p, rate) for p, rate in zip(plain, fleet.RUNG_RATES)}
    result.notes["capacity"] = {
        "saturated_per_s": saturated,
        "probes": [{**vars(c), "meets_slo": c.meets_slo} for c in probes],
    }


# ---- running one workload --------------------------------------------------------


@dataclass
class Context:
    """Per-run scratch space inside the checkout."""

    tmp: str

    @classmethod
    def create(cls) -> "Context":
        os.makedirs(proc.WORK, exist_ok=True)
        return cls(tempfile.mkdtemp(prefix="run-", dir=proc.WORK))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = tuple(CLI) + ("fleet_tcp",)


def run(name: str, seed: int, seconds: float, trace: int) -> Result:
    ctx = Context.create()
    try:
        if name == "fleet_tcp":
            return run_fleet(ctx, seed, seconds, trace)
        return run_cli(ctx, CLI[name], seed, seconds, trace)
    finally:
        ctx.close()

"""Per-layer metrics: what each one is, what it should move, and how it is
computed from the traced run.

Every per-layer metric names the end-to-end metric it should move and
the workloads it should move it on (:data:`CATALOG`), written down
before any change is measured.  A traced run reports every metric in the
catalog; a layer the workload never reaches reads 0.

Times are per traced process (per CLI invocation, or for the one traced
server).  The ``<layer>.self_s`` rows partition the traced process's
wall time: their sum plus ``process.unattributed_s`` (interpreter start
and exit, outside every traced frame) equals ``process.wall_s``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Dict, Iterable, List, Optional, Tuple

CLI_WORKLOADS = ("anchors", "paper_suite", "sweep_mmap")
ALL_WORKLOADS = CLI_WORKLOADS + ("fleet_tcp",)

#: the layers whose self times partition a traced process's wall time
LAYERS = (
    "import", "cli", "analysis", "variation", "aging", "core", "kernel", "store",
    "metrics", "ecc", "keygen", "protocol", "forensics", "service",
)

EXPERIMENTS = tuple(f"e{i}" for i in range(1, 14))


#: wall time per operation of the untraced runs: invocation spawn to exit,
#: or a fleet request's due time to its reply at 2000 req/s.  It is the
#: latency users see, but on a shared 2-vCPU host it moves by up to a
#: third between minutes (see README), so it has no bound and is reported
#: here; per-layer metrics that move it name it as their target.
WALL = "latency.p50_ms"


def _m(unit: str, better: str, moves: str, *workloads: str) -> Tuple[str, str, str, Tuple[str, ...]]:
    return unit, better, moves, workloads


#: name -> (unit, better, end-to-end metric it moves (or :data:`WALL`),
#: workloads it moves it on)
CATALOG: Dict[str, Tuple[str, str, str, Tuple[str, ...]]] = {
    # import: about 70 % of a check-anchors invocation, most of it scipy
    "import.total_s": _m("s", "lower", "setup_s", "anchors", "fleet_tcp"),
    "import.scipy_s": _m("s", "lower", "setup_s", "anchors", "fleet_tcp"),
    "import.repro_s": _m("s", "lower", "setup_s", "anchors", "fleet_tcp"),
    "import.modules": _m("count", "lower", "setup_s", "anchors"),
    "import.self_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "sweep_mmap"),
    # cli: argument parsing, rendering and printing
    "cli.self_s": _m("s", "lower", "cpu_ms_per_op", "paper_suite"),
    # analysis: one busy time per experiment function
    **{
        f"analysis.{key}.busy_s": _m(
            "s",
            "lower",
            "cpu_ms_per_op",
            *(("anchors", "paper_suite") if key in ("e2", "e3", "e4", "e13") else ("paper_suite",)),
        )
        for key in EXPERIMENTS
    },
    "analysis.self_s": _m("s", "lower", "cpu_ms_per_op", "paper_suite"),
    # variation: fabrication; the first design pays a one-time cost
    "variation.sample_population.calls": _m("count", "lower", "cpu_ms_per_op", "anchors"),
    "variation.sample_population.busy_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    "variation.chips": _m("count", "lower", "cpu_ms_per_op", "anchors"),
    "variation.sample_chip.calls": _m("count", "lower", "cpu_ms_per_op", "anchors", "sweep_mmap"),
    "variation.self_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "sweep_mmap"),
    # aging prefactors
    "aging.population_aging.calls": _m("count", "lower", "cpu_ms_per_op", "anchors"),
    "aging.population_aging.busy_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    "aging.self_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "sweep_mmap"),
    # core: study construction and the batched engine around the kernel
    "core.make_batch_study.calls": _m("count", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    "core.make_batch_study.self_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    "core.make_study.self_s": _m("s", "lower", "cpu_ms_per_op", "paper_suite"),
    "core.frequencies.calls": _m("count", "lower", "cpu_ms_per_op", "paper_suite"),
    "core.responses.calls": _m("count", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    "core.responses.self_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    "core.freq_memo_hit_ratio": _m("ratio", "higher", "cpu_ms_per_op", "anchors", "paper_suite"),
    "core.self_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    # kernel: bytes are computed from argument shapes, not measured
    "kernel.calls": _m("count", "lower", "cpu_ms_per_op", "sweep_mmap"),
    "kernel.busy_s": _m("s", "lower", "cpu_ms_per_op", "sweep_mmap"),
    "kernel.bytes_computed": _m("B", "lower", "cpu_ms_per_op", "sweep_mmap"),
    "kernel.gbps_computed": _m("GB/s", "higher", "cpu_ms_per_op", "sweep_mmap"),
    "kernel.self_s": _m("s", "lower", "cpu_ms_per_op", "sweep_mmap"),
    # store: out-of-core fabrication, release and the streaming study
    "store.ensure_rows.calls": _m("count", "lower", "cpu_ms_per_op", "sweep_mmap"),
    "store.ensure_rows.busy_s": _m("s", "lower", "cpu_ms_per_op", "sweep_mmap"),
    "store.release.calls": _m("count", "lower", "peak_rss_mb", "sweep_mmap"),
    "store.release.busy_s": _m("s", "lower", "cpu_ms_per_op", "sweep_mmap"),
    "store.frequencies.calls": _m("count", "lower", "cpu_ms_per_op", "sweep_mmap"),
    "store.frequencies.busy_s": _m("s", "lower", "cpu_ms_per_op", "sweep_mmap"),
    "store.rows_materialised": _m("count", "lower", "peak_rss_mb", "sweep_mmap"),
    "store.rows_per_s": _m("1/s", "higher", "cpu_ms_per_op", "sweep_mmap"),
    "store.self_s": _m("s", "lower", "cpu_ms_per_op", "sweep_mmap"),
    # metrics
    "metrics.reliability.busy_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    "metrics.uniqueness.busy_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    "metrics.randomness_battery.busy_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    "metrics.self_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    # ecc and keygen: E6's design-space search, and the fleet's key path
    "ecc.key_failure_probability.calls": _m("count", "lower", "cpu_ms_per_op", "paper_suite"),
    "ecc.key_failure_probability.busy_s": _m("s", "lower", "cpu_ms_per_op", "paper_suite"),
    "ecc.self_s": _m("s", "lower", "cpu_ms_per_op", "paper_suite"),
    "keygen.search_design_space.self_s": _m("s", "lower", "cpu_ms_per_op", "paper_suite"),
    "keygen.enroll.calls": _m("count", "lower", "cpu_ms_per_op", "fleet_tcp"),
    "keygen.enroll.busy_s": _m("s", "lower", "cpu_ms_per_op", "fleet_tcp", "paper_suite"),
    "keygen.reproduce.calls": _m("count", "lower", "cpu_ms_per_op", "fleet_tcp"),
    "keygen.reproduce.busy_s": _m("s", "lower", "cpu_ms_per_op", "fleet_tcp", "paper_suite"),
    "keygen.reproduce.failures": _m("count", "lower", "cpu_ms_per_op", "fleet_tcp"),
    "keygen.self_s": _m("s", "lower", "cpu_ms_per_op", "paper_suite"),
    # protocol and forensics
    "protocol.authentication_study.busy_s": _m("s", "lower", "cpu_ms_per_op", "paper_suite"),
    "protocol.attack_curve.busy_s": _m("s", "lower", "cpu_ms_per_op", "paper_suite"),
    "protocol.self_s": _m("s", "lower", "cpu_ms_per_op", "paper_suite"),
    "forensics.capture_forensics.busy_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    "forensics.self_s": _m("s", "lower", "cpu_ms_per_op", "anchors", "paper_suite"),
    # service: server-side time per request, outcomes, time on the wire
    "service.dispatch.p50_us": _m("us", "lower", WALL, "fleet_tcp"),
    "service.auth.p50_us": _m("us", "lower", WALL, "fleet_tcp"),
    "service.key.p50_us": _m("us", "lower", "cpu_ms_per_op", "fleet_tcp"),
    "service.enroll.p50_us": _m("us", "lower", "cpu_ms_per_op", "fleet_tcp"),
    "service.outcome.ok": _m("count", "higher", "cpu_ms_per_op", "fleet_tcp"),
    "service.outcome.rejected": _m("count", "higher", "cpu_ms_per_op", "fleet_tcp"),
    "service.outcome.key_recovery": _m("count", "lower", "cpu_ms_per_op", "fleet_tcp"),
    "service.self_s": _m("s", "lower", "cpu_ms_per_op", "fleet_tcp"),
    "wire.wait_p50_us": _m("us", "lower", WALL, "fleet_tcp"),
    # the fleet's latency ladder and capacity, from the untraced server
    "fleet.max_rate_at_slo": _m("req/s", "higher", "cpu_ms_per_op", "fleet_tcp"),
    **{
        f"fleet.r{rate}.{stat}": _m("ms", "lower", WALL, "fleet_tcp")
        for rate in (500, 2000)
        for stat in ("auth_p50_ms", "auth_p99_ms", "key_p50_ms")
    },
    # validity of the generator's schedule
    "loadgen.late_p50_ms": _m("ms", "lower", WALL, "fleet_tcp"),
    "loadgen.late_p99_ms": _m("ms", "lower", WALL, "fleet_tcp"),
    WALL: _m("ms", "lower", "cpu_ms_per_op", *ALL_WORKLOADS),
    # the whole traced process
    "process.wall_s": _m("s", "lower", WALL, *ALL_WORKLOADS),
    "process.unattributed_s": _m("s", "lower", "cpu_ms_per_op", *ALL_WORKLOADS),
    "trace.overhead_frac": _m("ratio", "lower", WALL, *ALL_WORKLOADS),
    "trace.missing_entries": _m("count", "lower", "cpu_ms_per_op", *ALL_WORKLOADS),
}


def parse_importtime(stderr: str) -> Tuple[Dict[str, float], str]:
    """Split ``-X importtime`` lines out of ``stderr``.

    Returns the import figures in microseconds (``total_us``: top-level
    imports; ``scipy_us`` / ``repro_us``: imports of those packages not
    nested in another import of the same package; ``modules``) and the
    rest of ``stderr``.  A module's line comes after the lines of the
    imports it triggered, so nesting is resolved walking backwards.
    """
    rows: List[Tuple[int, int, str]] = []
    rest: List[str] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header row
        field = parts[2][1:]
        rows.append((len(field) - len(field.lstrip(" ")), int(parts[1]), field.strip()))
    figures = {"total_us": 0.0, "scipy_us": 0.0, "repro_us": 0.0, "modules": float(len(rows))}
    if rows:
        top = min(depth for depth, _, _ in rows)
        stack: List[Tuple[int, str]] = []
        for depth, cumulative, name in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if depth == top:
                figures["total_us"] += cumulative
            for package in ("scipy", "repro"):
                if _in_package(name, package) and not any(
                    _in_package(outer, package) for _, outer in stack
                ):
                    figures[f"{package}_us"] += cumulative
            stack.append((depth, name))
    return figures, "\n".join(rest)


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


class LayerTotals:
    """Hook output summed over the traced processes of one run."""

    def __init__(self):
        self.processes = 0
        self.wall_s = 0.0
        self.root_ns = 0
        self.entries: Dict[str, Dict[str, float]] = {}
        self.durations: Dict[str, List[int]] = {}
        self.layer_self_ns: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.imports: Dict[str, float] = {}
        self.missing: set = set()
        self.by_rid: Dict[str, int] = {}
        self.events: List[dict] = []

    def add_process(self, trace_dir: str, wall_s: float, stderr: str) -> str:
        """Fold one traced process in; returns its stderr without the
        import-time lines."""
        figures, rest = parse_importtime(stderr)
        for key, value in figures.items():
            self.imports[key] = self.imports.get(key, 0.0) + value
        self.processes += 1
        self.wall_s += wall_s
        for path in sorted(glob.glob(os.path.join(trace_dir, "layers-*.json"))):
            with open(path) as fh:
                payload = json.load(fh)
            self.root_ns += payload["root_ns"]
            for name, entry in payload["entries"].items():
                mine = self.entries.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "errors": 0})
                for key in mine:
                    mine[key] += entry[key]
                if "durations_ns" in entry:
                    self.durations.setdefault(name, []).extend(entry["durations_ns"])
            for layer, value in payload["layer_self_ns"].items():
                self.layer_self_ns[layer] = self.layer_self_ns.get(layer, 0) + value
            for name, value in payload["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + value
            self.missing.update(payload["missing"])
            self.by_rid.update(payload["by_rid"])
        for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
            with open(path) as fh:
                self.events.extend(json.load(fh)["traceEvents"])
        return rest

    def entry(self, name: str, field: str) -> float:
        return self.entries.get(name, {}).get(field, 0)

    def metrics(self) -> Dict[str, float]:
        """Every catalog metric this data determines; the rest read 0."""
        n = max(self.processes, 1)
        values = {name: 0.0 for name in CATALOG}
        values["import.total_s"] = self.imports.get("total_us", 0.0) / 1e6 / n
        values["import.scipy_s"] = self.imports.get("scipy_us", 0.0) / 1e6 / n
        values["import.repro_s"] = self.imports.get("repro_us", 0.0) / 1e6 / n
        values["import.modules"] = self.imports.get("modules", 0.0) / n
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.layer_self_ns.get(layer, 0) / 1e9 / n
        for key in EXPERIMENTS:
            values[f"analysis.{key}.busy_s"] = self.entry(f"analysis.{key}", "busy_ns") / 1e9 / n
        for entry, fields in (
            ("variation.sample_population", ("calls", "busy_s")),
            ("variation.sample_chip", ("calls",)),
            ("aging.population_aging", ("calls", "busy_s")),
            ("core.make_batch_study", ("calls", "self_s")),
            ("core.make_study", ("self_s",)),
            ("core.frequencies", ("calls",)),
            ("core.responses", ("calls", "self_s")),
            ("store.ensure_rows", ("calls", "busy_s")),
            ("store.release", ("calls", "busy_s")),
            ("store.frequencies", ("calls", "busy_s")),
            ("metrics.reliability", ("busy_s",)),
            ("metrics.uniqueness", ("busy_s",)),
            ("metrics.randomness_battery", ("busy_s",)),
            ("ecc.key_failure_probability", ("calls", "busy_s")),
            ("keygen.search_design_space", ("self_s",)),
            ("keygen.enroll", ("calls", "busy_s")),
            ("keygen.reproduce", ("calls", "busy_s")),
            ("protocol.authentication_study", ("busy_s",)),
            ("protocol.attack_curve", ("busy_s",)),
            ("forensics.capture_forensics", ("busy_s",)),
        ):
            for field in fields:
                raw = self.entry(entry, field.replace("_s", "_ns"))
                values[f"{entry}.{field}"] = (raw / 1e9 if field.endswith("_s") else raw) / n
        values["keygen.reproduce.failures"] = self.entry("keygen.reproduce", "errors") / n
        values["variation.chips"] = self.counts.get("variation.chips", 0) / n
        hits = self.counts.get("core.freq_memo_hits", 0)
        lookups = hits + self.counts.get("core.freq_memo_misses", 0)
        values["core.freq_memo_hit_ratio"] = hits / lookups if lookups else 0.0
        kernel_ns = self.entry("kernel.frequency_block_kernel", "busy_ns")
        kernel_bytes = self.counts.get("kernel.bytes_computed", 0)
        values["kernel.calls"] = self.entry("kernel.frequency_block_kernel", "calls") / n
        values["kernel.busy_s"] = kernel_ns / 1e9 / n
        values["kernel.bytes_computed"] = kernel_bytes / n
        values["kernel.gbps_computed"] = kernel_bytes / kernel_ns if kernel_ns else 0.0
        rows = self.counts.get("store.rows_materialised", 0)
        ensure_ns = self.entry("store.ensure_rows", "busy_ns")
        values["store.rows_materialised"] = rows / n
        values["store.rows_per_s"] = rows / (ensure_ns / 1e9) if ensure_ns else 0.0
        for op in ("dispatch", "auth", "key", "enroll"):
            durations = self.durations.get(f"service.{op}")
            if durations:
                values[f"service.{op}.p50_us"] = statistics.median(durations) / 1e3
        for outcome in ("ok", "rejected", "key_recovery"):
            values[f"service.outcome.{outcome}"] = self.counts.get(f"service.outcome.{outcome}", 0) / n
        values["process.wall_s"] = self.wall_s / n
        values["process.unattributed_s"] = (self.wall_s - self.root_ns / 1e9) / n
        values["trace.missing_entries"] = float(len(self.missing))
        return values

    def write(self, directory: str, workload: str, metrics: Dict[str, float]) -> Tuple[str, str]:
        """Leave the merged Chrome trace and the run's layer summary."""
        os.makedirs(directory, exist_ok=True)
        trace_path = os.path.join(directory, f"{workload}.trace.json")
        with open(trace_path, "w") as fh:
            json.dump({"traceEvents": self.events, "displayTimeUnit": "ms"}, fh)
        layers_path = os.path.join(directory, f"{workload}.layers.json")
        with open(layers_path, "w") as fh:
            json.dump(
                {
                    "processes": self.processes,
                    "entries": self.entries,
                    "layer_self_ns": self.layer_self_ns,
                    "counts": self.counts,
                    "imports": self.imports,
                    "missing": sorted(self.missing),
                    "metrics": metrics,
                },
                fh,
                indent=1,
                sort_keys=True,
            )
        return trace_path, layers_path


def check_catalog(names: Iterable[str]) -> None:
    """Raise unless ``names`` are exactly the catalog's."""
    names = set(names)
    extra, missing = names - set(CATALOG), set(CATALOG) - names
    if extra or missing:
        raise ValueError(f"per-layer metrics differ from the catalog: extra {sorted(extra)}, missing {sorted(missing)}")


def overhead(traced: float, untraced: float) -> float:
    return traced / untraced - 1.0 if untraced > 0 else 0.0


def median_or_zero(values: Iterable[Optional[float]]) -> float:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else 0.0

"""Shared plumbing for the performance benchmarks.

``bench_population.py`` (engine speed-ups, store overhead, out-of-core
memory), ``bench_service.py`` (served throughput and the SLO gate) and
``bench_hooks.py`` (the telemetry hook budget) time their kernels with
:func:`best_of` and persist what they measured with :func:`emit`.  The
paper's tables are not produced here: ``repro run eN`` / ``run all``
prints them.

:func:`emit` writes the table to ``benchmarks/results/<name>.txt`` so the
harness leaves artefacts even when pytest captures stdout.  Passing
``values`` additionally writes the headline numbers to
``benchmarks/results/<name>.json``, with a
:class:`repro.telemetry.manifest.RunManifest` (provenance: package version, git
SHA, numpy/platform) so an artefact stays auditable long after the
checkout is gone.  When ``REPRO_PERF_LEDGER`` names a perf ledger, the
values are appended to it too, and ``repro perf history|gate`` over that
ledger is the one verdict on them.  The directory is not tracked: every
run rewrites it.

Run everything with::

    pytest benchmarks/
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from typing import Any, Callable, Dict, Mapping, Optional

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def best_of(fn: Callable[[], Any], rounds: int = 5, warmup: int = 1) -> float:
    """Best-of-``rounds`` wall-clock seconds for ``fn()``, after warm-up.

    The speedup gates compare two of these minima: min is the least noisy
    location statistic on shared CI boxes (it converges to the true cost
    as scheduling noise is strictly additive), and the ``warmup`` calls —
    excluded from timing — pay one-time costs (buffer page faults, pool
    start-up, import side effects) that would otherwise land on whichever
    contender runs first and skew the ratio.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)

_manifest_cache: Optional[Dict[str, Any]] = None


def run_manifest() -> Dict[str, Any]:
    """The harness-wide provenance record (collected once per session)."""
    global _manifest_cache
    if _manifest_cache is None:
        from repro.telemetry.manifest import RunManifest

        _manifest_cache = RunManifest.collect(
            config={"harness": "benchmarks"}
        ).to_dict()
    return _manifest_cache


def _write_payload(
    name: str,
    values: Mapping[str, float],
    memory: Optional[Mapping[str, float]] = None,
    histograms: Optional[Mapping[str, Mapping[str, float]]] = None,
    roofline: Optional[Mapping[str, float]] = None,
) -> None:
    payload: Dict[str, Any] = {
        "name": name,
        "values": {k: float(v) for k, v in values.items()},
        "manifest": run_manifest(),
    }
    if memory:
        payload["memory"] = {k: float(v) for k, v in memory.items()}
    if histograms:
        payload["histograms"] = {
            name_: {k: float(v) for k, v in summary.items()}
            for name_, summary in histograms.items()
        }
    if roofline:
        payload["roofline"] = {k: float(v) for k, v in roofline.items()}
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    _append_perf_ledger(name, payload)


def _append_perf_ledger(name: str, payload: Mapping[str, Any]) -> None:
    """Opt-in longitudinal append: one perf-ledger line per bench artefact.

    Active only when ``REPRO_PERF_LEDGER`` names a ledger file (CI's
    perf-ledger job sets it; local runs opt in the same way) — the
    default bench run writes nothing extra.  A failed append warns and
    never fails the benchmark: the ledger observes runs, it must not be
    able to break them.
    """
    path = os.environ.get("REPRO_PERF_LEDGER")
    if not path:
        return
    try:
        from repro.telemetry.ledger import Ledger, entry_from_bench_payload

        Ledger(path).append(entry_from_bench_payload(name, payload))
    except Exception as exc:  # pragma: no cover - diagnostic path
        print(
            f"warning: perf-ledger append to {path} failed: {exc}",
            file=sys.stderr,
        )


def emit(
    name: str,
    text: str,
    values: Optional[Mapping[str, float]] = None,
    memory: Optional[Mapping[str, float]] = None,
    histograms: Optional[Mapping[str, Mapping[str, float]]] = None,
    roofline: Optional[Mapping[str, float]] = None,
) -> None:
    """Print a result table and persist it under benchmarks/results/.

    ``values`` is an optional flat mapping of headline metrics (timings in
    seconds, percentages, counts — any scalar a regression check should
    watch); when given it is written alongside the table as
    ``<name>.json`` together with the run manifest.  ``memory`` is an
    optional mapping of memory metrics (``peak_rss_bytes``), and
    ``histograms`` one of per-metric latency summaries
    (``Tracer.histogram_summaries()`` output).  ``roofline`` is an
    optional mapping of throughput metrics (``chips_years_per_s`` style,
    bigger is better).  The perf ledger takes each section's scalars
    (:func:`repro.telemetry.ledger.entry_from_bench_payload`).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if values is not None:
        _write_payload(name, values, memory, histograms, roofline)
    print(f"\n{text}\n")


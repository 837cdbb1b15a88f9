"""Shared plumbing for the performance benchmarks.

``bench_population.py`` (engine speed-ups, telemetry and store overhead,
out-of-core memory) and ``bench_service.py`` (served throughput and the
instrumentation budget) time their kernels with :func:`best_of` and
persist what they measured with :func:`emit`.  The paper's tables are
not produced here: ``repro run eN`` / ``run all`` prints them.

:func:`emit` writes the table to ``benchmarks/results/<name>.txt`` so the
harness leaves artefacts even when pytest captures stdout.  Passing
``values`` additionally writes the headline numbers to
``benchmarks/results/<name>.json`` so that result sets from two
checkouts can be diffed mechanically with ``tools/bench_compare.py``.
Every JSON artefact carries a :class:`repro.telemetry.RunManifest`
(provenance: package version, git SHA, numpy/platform) so a results
directory stays auditable long after the checkout is gone; passing
``counters`` (e.g. from a ``telemetry.session()`` around the measured
run) records the *work done* — kernel invocations, memo hit rates — next
to the timings, letting ``bench_compare`` explain a speed diff instead of
just flagging it.

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
        from repro.telemetry import RunManifest

        _manifest_cache = RunManifest.collect(
            config={"harness": "benchmarks"}
        ).to_dict()
    return _manifest_cache


def _write_payload(
    name: str,
    values: Mapping[str, float],
    counters: Optional[Mapping[str, float]] = None,
    memory: Optional[Mapping[str, float]] = None,
    histograms: Optional[Mapping[str, Mapping[str, float]]] = None,
    roofline: Optional[Mapping[str, float]] = None,
) -> None:
    payload: Dict[str, Any] = {
        "name": name,
        "values": {k: float(v) for k, v in values.items()},
        "manifest": run_manifest(),
    }
    if counters:
        payload["counters"] = {k: float(v) for k, v in counters.items()}
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
        from repro.telemetry import Ledger, entry_from_bench_payload

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
    counters: Optional[Mapping[str, float]] = None,
    memory: Optional[Mapping[str, float]] = None,
    histograms: Optional[Mapping[str, Mapping[str, float]]] = None,
    roofline: Optional[Mapping[str, float]] = None,
) -> None:
    """Print a result table and persist it under benchmarks/results/.

    ``values`` is an optional flat mapping of headline metrics (timings in
    seconds, percentages, counts — any scalar a regression check should
    watch); when given it is written alongside the table as
    ``<name>.json`` for :mod:`tools.bench_compare`, together with the run
    manifest.  ``counters`` is an optional telemetry counter snapshot
    (work-done metrics), diffed informationally by ``bench_compare``
    rather than regression-gated.  ``memory`` is an optional mapping of
    memory metrics (``peak_rss_bytes``, chips/sec footprints from the
    out-of-core store gates); older artefacts without the section diff as
    ``n/a``, never as an error.  ``histograms`` is an optional mapping of
    per-metric latency summaries (``Tracer.histogram_summaries()``
    output); ``bench_compare`` diffs the p50/p99 quantiles
    informationally, with the same ``n/a`` tolerance.  ``roofline`` is
    an optional mapping of throughput metrics (``chips_years_per_s``
    style, bigger is better); ``bench_compare`` gates a *decrease* under
    ``--gate`` — the inverse of the ``values`` growth gate — and treats
    artefacts without the section as ``n/a``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if values is not None:
        _write_payload(name, values, counters, memory, histograms, roofline)
    print(f"\n{text}\n")


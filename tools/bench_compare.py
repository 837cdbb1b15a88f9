#!/usr/bin/env python
"""Diff two benchmark result sets and flag regressions.

Compares the machine-readable ``*.json`` artefacts that
``benchmarks/_common.emit`` drops into ``benchmarks/results/`` —
typically one directory from the baseline checkout and one from the
candidate::

    python tools/bench_compare.py baseline/results benchmarks/results

Every metric shared by both sets is compared; a metric whose value grew
by more than the threshold (default 20 %) is a **regression** (all
tracked metrics — timings, flip percentages — are better when smaller).
Telemetry ``counters`` sections (work-done metrics: kernel invocations,
memo hit rates) are diffed and printed as well, but informationally —
doing *more work* is not by itself a regression.  ``memory`` sections
(peak RSS and footprint numbers from store-mode benchmarks) and
``histograms`` sections (per-metric latency quantile summaries — p50 and
p99 are diffed) are handled informationally too, and tolerantly:
artefacts written before those fields existed simply show ``n/a`` on
their side of the table rather than failing the diff.  ``roofline``
sections (throughput metrics, chips x years per second — bigger is
better) get the same union-keyed ``n/a`` tolerance with the gate
direction inverted: a *drop* beyond the threshold regresses.  ``--gate``
promotes the memory, roofline and histogram sections to gating: a move
in the bad direction beyond the threshold on a metric present in *both*
sets exits 1 like a values regression, while one-sided ``n/a`` rows
still never gate (counters and ledger scalars stay informational even
then).  ``service`` sections (the RED rate/availability/latency map a
``repro loadgen --out`` artefact carries) are diffed with the same
union-keyed ``n/a`` tolerance but stay informational even under
``--gate``: the map mixes bigger-is-better rates with smaller-is-better
latencies, so no single gate direction is honest — the SLO spec
(``repro loadgen --slo-gate``) owns those verdicts.  Run-ledger
``*.jsonl`` files found in either directory are diffed the same
informational way (experiment scalars have no universal "better"
direction — the anchor registry judges those, see ``repro
check-anchors --from-ledger``).  Exit status is
1 when any regression is found, so the script can gate CI; ``--json
PATH`` additionally writes the full diff machine-readably for CI to
consume.

Only the standard library is used: the script must run on a bare
interpreter without the package installed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, Iterable, List, Tuple


def load_results(
    path: pathlib.Path, section: str = "values"
) -> Dict[str, float]:
    """Flatten one result set's ``section`` into ``{"file:metric": value}``.

    ``path`` is either a directory of ``*.json`` files or a single file.
    ``section`` is ``"values"`` (regression-gated headline metrics) or
    ``"counters"`` (informational work-done metrics).  Files that are not
    benchmark artefacts (no such mapping) are skipped rather than fatal,
    so the results directory can hold other droppings.
    """
    if path.is_dir():
        files: Iterable[pathlib.Path] = sorted(path.glob("*.json"))
    elif path.is_file():
        files = [path]
    else:
        raise FileNotFoundError(f"no such file or directory: {path}")

    metrics: Dict[str, float] = {}
    for file in files:
        try:
            payload = json.loads(file.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        values = payload.get(section) if isinstance(payload, dict) else None
        if not isinstance(values, dict):
            continue
        name = payload.get("name", file.stem)
        for key, value in values.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[f"{name}:{key}"] = float(value)
    return metrics


def load_ledger_scalars(path: pathlib.Path) -> Dict[str, float]:
    """Flatten run-ledger ``*.jsonl`` lines into ``{"exp.key": value}``.

    ``path`` is a directory (every ``*.jsonl`` inside is read) or one
    ledger file.  Run entries of both ledger formats count; perf entries
    sharing the file do not.  Later lines win, matching
    :func:`repro.telemetry.latest_scalars` without importing the
    package.  Malformed lines and non-ledger files are skipped — absence
    of ledgers is normal for a results directory.
    """
    if path.is_dir():
        files: Iterable[pathlib.Path] = sorted(path.glob("*.jsonl"))
    elif path.is_file() and path.suffix == ".jsonl":
        files = [path]
    else:
        return {}

    merged: Dict[str, float] = {}
    for file in files:
        try:
            lines = file.read_text().splitlines()
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(entry, dict):
                continue
            if entry.get("kind", "run") != "run":
                continue  # perf entries may share the file
            # format 2 names the experiment ``name``, format 1 ``experiment``
            experiment = entry.get("name", entry.get("experiment"))
            scalars = entry.get("scalars")
            if not isinstance(experiment, str) or not isinstance(scalars, dict):
                continue
            for key, value in scalars.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    merged[f"{experiment}.{key}"] = float(value)
    return merged


def load_histograms(path: pathlib.Path) -> Dict[str, float]:
    """Flatten ``histograms`` sections into ``{"file:metric.q": value}``.

    Benchmark artefacts may carry per-metric latency summaries
    (``{"batch.block_s": {"count": ..., "p50": ..., "p99": ...}}``); the
    headline quantiles are flattened for an informational diff.  Older
    artefacts without the section contribute nothing — the diff renders
    ``n/a`` for their side, mirroring the ``memory`` section.
    """
    if path.is_dir():
        files: Iterable[pathlib.Path] = sorted(path.glob("*.json"))
    elif path.is_file():
        files = [path]
    else:
        return {}

    metrics: Dict[str, float] = {}
    for file in files:
        try:
            payload = json.loads(file.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        section = payload.get("histograms") if isinstance(payload, dict) else None
        if not isinstance(section, dict):
            continue
        name = payload.get("name", file.stem)
        for metric, summary in section.items():
            if not isinstance(summary, dict):
                continue
            for quantile in ("p50", "p99"):
                value = summary.get(quantile)
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    metrics[f"{name}:{metric}.{quantile}"] = float(value)
    return metrics


def load_service_metrics(path: pathlib.Path) -> Dict[str, float]:
    """Flatten ``service.metrics`` maps into ``{"file:metric": value}``.

    Load-generation artefacts (``repro loadgen --out``) carry a nested
    ``service`` section with the flat RED metrics the SLO spec judges;
    ordinary benchmark artefacts have no such section and contribute
    nothing — the diff renders ``n/a`` for their side, never a KeyError.
    """
    if path.is_dir():
        files: Iterable[pathlib.Path] = sorted(path.glob("*.json"))
    elif path.is_file():
        files = [path]
    else:
        return {}

    metrics: Dict[str, float] = {}
    for file in files:
        try:
            payload = json.loads(file.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        service = payload.get("service") if isinstance(payload, dict) else None
        if not isinstance(service, dict):
            continue
        section = service.get("metrics")
        if not isinstance(section, dict):
            continue
        name = payload.get("name", file.stem)
        for key, value in section.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[f"{name}:{key}"] = float(value)
    return metrics


def compare_memory(
    old: Dict[str, float], new: Dict[str, float]
) -> List[Tuple[str, object, object]]:
    """Pair up two ``memory`` sections over the *union* of their keys.

    Unlike :func:`compare`, one-sided metrics are kept, with ``None``
    standing in for the missing side: memory fields are newer than many
    archived artefacts, and an old baseline without them must still diff
    cleanly (the renderer prints ``n/a``, never raises).
    """
    rows: List[Tuple[str, object, object]] = []
    for key in sorted(set(old) | set(new)):
        rows.append((key, old.get(key), new.get(key)))
    return rows


def tolerant_change(a, b):
    """Relative change, or ``None`` when it cannot be computed.

    The one place the optional-section tolerance rule lives: a missing
    side (older artefact without the section) or a zero baseline yields
    ``None`` — rendered as ``n/a``, never a KeyError, and never counted
    as a regression even under ``--gate``.
    """
    if a is None or b is None or a == 0.0:
        return None
    return (b - a) / abs(a)


def print_optional_section(
    title: str,
    rows: List[Tuple[str, object, object]],
    threshold=None,
    bigger_is_better: bool = False,
) -> List[str]:
    """Print one tolerant (union-keyed) section; return gated regressions.

    With ``threshold=None`` (the default informational mode) nothing is
    flagged.  With a threshold (``--gate``), a metric present on *both*
    sides that moved in the bad direction beyond it is returned as a
    regression; one-sided ``n/a`` rows still never gate.  The bad
    direction is growth for cost metrics (seconds, bytes — the default)
    and *shrinkage* for ``bigger_is_better`` throughput metrics
    (``roofline`` chips x years per second).
    """
    regressions: List[str] = []
    if not rows:
        return regressions
    width = max(len(key) for key, *_ in rows)
    print(f"\n{title}:")
    for key, a, b in rows:
        a_text = "n/a" if a is None else f"{a:.6g}"
        b_text = "n/a" if b is None else f"{b:.6g}"
        change = tolerant_change(a, b)
        change_text = "    n/a" if change is None else f"{change:>+7.1%}"
        flag = ""
        if threshold is not None and change is not None:
            bad = -change if bigger_is_better else change
            if bad > threshold:
                flag = "  REGRESSION"
                regressions.append(key)
        print(f"{key:<{width}}  {a_text:>12}  {b_text:>12}  {change_text}{flag}")
    return regressions


def compare(
    old: Dict[str, float], new: Dict[str, float], threshold: float
) -> Tuple[List[Tuple[str, float, float, float]], List[str], List[str]]:
    """Pair up the two sets.

    Returns ``(rows, only_old, only_new)`` where each row is
    ``(metric, old_value, new_value, relative_change)``.
    """
    rows = []
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        if a == 0.0:
            change = 0.0 if b == 0.0 else float("inf")
        else:
            change = (b - a) / abs(a)
        rows.append((key, a, b, change))
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    return rows, only_old, only_new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="diff two benchmark result sets, flag >threshold regressions"
    )
    parser.add_argument("baseline", type=pathlib.Path, help="baseline results dir/file")
    parser.add_argument("candidate", type=pathlib.Path, help="candidate results dir/file")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative growth that counts as a regression (default 0.20)",
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="also write the diff (rows, counters, regressions) as JSON",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="also gate on memory/histogram-quantile growth and roofline "
        "throughput drops beyond the threshold (one-sided n/a rows still "
        "never gate); counters and ledger scalars stay informational",
    )
    args = parser.parse_args(argv)

    try:
        old = load_results(args.baseline)
        new = load_results(args.candidate)
        old_counters = load_results(args.baseline, section="counters")
        new_counters = load_results(args.candidate, section="counters")
        old_memory = load_results(args.baseline, section="memory")
        new_memory = load_results(args.candidate, section="memory")
        old_roofline = load_results(args.baseline, section="roofline")
        new_roofline = load_results(args.candidate, section="roofline")
        old_hist = load_histograms(args.baseline)
        new_hist = load_histograms(args.candidate)
        old_service = load_service_metrics(args.baseline)
        new_service = load_service_metrics(args.candidate)
        old_ledger = load_ledger_scalars(args.baseline)
        new_ledger = load_ledger_scalars(args.candidate)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not old or not new:
        print("error: one of the result sets holds no benchmark metrics", file=sys.stderr)
        return 2

    rows, only_old, only_new = compare(old, new, args.threshold)
    if not rows:
        print("error: the result sets share no metrics", file=sys.stderr)
        return 2
    counter_rows, _, _ = compare(old_counters, new_counters, args.threshold)
    memory_rows = compare_memory(old_memory, new_memory)
    roofline_rows = compare_memory(old_roofline, new_roofline)
    histogram_rows = compare_memory(old_hist, new_hist)
    service_rows = compare_memory(old_service, new_service)
    ledger_rows, _, _ = compare(old_ledger, new_ledger, args.threshold)

    width = max(len(key) for key, *_ in rows)
    regressions = []
    print(f"{'metric':<{width}}  {'baseline':>12}  {'candidate':>12}  {'change':>8}")
    for key, a, b, change in rows:
        flag = ""
        if change > args.threshold:
            flag = "  REGRESSION"
            regressions.append(key)
        elif change < -args.threshold:
            flag = "  improved"
        print(f"{key:<{width}}  {a:>12.6g}  {b:>12.6g}  {change:>+7.1%}{flag}")

    if counter_rows:
        cwidth = max(len(key) for key, *_ in counter_rows)
        print("\nwork done (telemetry counters, informational):")
        for key, a, b, change in counter_rows:
            print(f"{key:<{cwidth}}  {a:>12.6g}  {b:>12.6g}  {change:>+7.1%}")

    gate_threshold = args.threshold if args.gate else None
    mode = "gated" if args.gate else "informational"
    memory_regressions = print_optional_section(
        f"memory (peak RSS / footprint, {mode})",
        memory_rows,
        threshold=gate_threshold,
    )
    roofline_regressions = print_optional_section(
        f"roofline throughput (chips x years per second, {mode}; "
        "bigger is better — a drop gates)",
        roofline_rows,
        threshold=gate_threshold,
        bigger_is_better=True,
    )
    histogram_regressions = print_optional_section(
        f"latency histograms (p50/p99, {mode})",
        histogram_rows,
        threshold=gate_threshold,
    )
    regressions += (
        memory_regressions + roofline_regressions + histogram_regressions
    )
    # service RED metrics never gate, even under --gate: the map mixes
    # directions (rates up-good, latencies down-good) — SLOs judge them
    print_optional_section(
        "service RED metrics (rate/availability/latency, informational)",
        service_rows,
        threshold=None,
    )

    if ledger_rows:
        lwidth = max(len(key) for key, *_ in ledger_rows)
        print("\nledger scalars (experiment results, informational):")
        for key, a, b, change in ledger_rows:
            print(f"{key:<{lwidth}}  {a:>12.6g}  {b:>12.6g}  {change:>+7.1%}")

    for key in only_old:
        print(f"note: {key} only in baseline")
    for key in only_new:
        print(f"note: {key} only in candidate")

    if args.json is not None:
        payload = {
            "threshold": args.threshold,
            "rows": [
                {
                    "metric": key,
                    "baseline": a,
                    "candidate": b,
                    "change": change,
                    "regression": change > args.threshold,
                }
                for key, a, b, change in rows
            ],
            "counters": [
                {"metric": key, "baseline": a, "candidate": b, "change": change}
                for key, a, b, change in counter_rows
            ],
            "memory": [
                {
                    "metric": key,
                    "baseline": a,
                    "candidate": b,
                    "change": tolerant_change(a, b),
                    "regression": key in memory_regressions,
                }
                for key, a, b in memory_rows
            ],
            "roofline": [
                {
                    "metric": key,
                    "baseline": a,
                    "candidate": b,
                    "change": tolerant_change(a, b),
                    "regression": key in roofline_regressions,
                }
                for key, a, b in roofline_rows
            ],
            "histograms": [
                {
                    "metric": key,
                    "baseline": a,
                    "candidate": b,
                    "change": tolerant_change(a, b),
                    "regression": key in histogram_regressions,
                }
                for key, a, b in histogram_rows
            ],
            "service": [
                {
                    "metric": key,
                    "baseline": a,
                    "candidate": b,
                    "change": tolerant_change(a, b),
                }
                for key, a, b in service_rows
            ],
            "ledger": [
                {"metric": key, "baseline": a, "candidate": b, "change": change}
                for key, a, b, change in ledger_rows
            ],
            "only_baseline": only_old,
            "only_candidate": only_new,
            "gate": args.gate,
            "regressions": sorted(regressions),
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"json diff written to {args.json}")

    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond "
            f"{args.threshold:.0%}: {', '.join(regressions)}"
        )
        return 1
    print(f"\nno regressions beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

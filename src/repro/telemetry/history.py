"""Ledger history: per-metric trends, sparklines and movement verdicts.

A ledger is only useful if someone reads it.  ``repro history`` (run
entries) and ``repro perf history`` (perf entries) both render through
:func:`render_history`: one row per metric with a terminal sparkline
over the recorded values (file order == chronological order for an
append-only file), the latest value, and its change against the median
of the preceding ``window`` values.  ``repro perf gate`` judges the
same :func:`history_rows`, so a perf metric has one verdict in every
view.

Whether the latest value moved is the median+MAD change-point
detector's call (:mod:`repro.telemetry.changepoint`): it flags only
beyond the metric's own measured noise and beyond ``threshold``
(relative) of the median, one outlier run can neither fake nor hide a
movement, and a short series stays in warm-up.

Run-entry flags are two-sided and informational (``<< drift``): the
ledger does not know whether a metric is better when smaller (flip
rates) or when closer to a constant (uniqueness ~50 %), so it reports
*movement* and leaves the judgement to the anchor registry
(:mod:`repro.telemetry.anchors`), which does know.  Perf metrics have a
known orientation (:func:`~repro.telemetry.changepoint.metric_orientation`),
so their flags say ``regress``, ``improve`` or, when the name does not
tell, ``shift``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import changepoint
from .ledger import LedgerEntry, metric_series

#: eighths-block ramp used for terminal sparklines
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """A unicode sparkline over ``values`` (min .. max scaled)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        # a flat series renders mid-scale rather than all-minimum
        return SPARK_BLOCKS[3] * len(values)
    span = hi - lo
    top = len(SPARK_BLOCKS) - 1
    return "".join(
        SPARK_BLOCKS[min(top, int((v - lo) / span * len(SPARK_BLOCKS)))]
        for v in values
    )


#: ``repro history``'s defaults for run rows: trailing window, noise floor
RUN_WINDOW = 5
RUN_THRESHOLD = 0.10


@dataclass(frozen=True)
class TrendRow:
    """One metric's longitudinal summary across ledger entries."""

    metric: str
    values: Tuple[float, ...]
    point: changepoint.ChangePoint
    #: "warmup" | "stable", or on movement "drift" (run entries) /
    #: "regress" | "improve" | "shift" (perf entries)
    verdict: str
    #: the trailing window the baseline was taken over
    window: int

    @property
    def n_runs(self) -> int:
        return len(self.values)


def history_rows(
    entries: Sequence[LedgerEntry],
    *,
    metrics: Optional[Sequence[str]] = None,
    window: Optional[int] = None,
    threshold: Optional[float] = None,
    last: Optional[int] = None,
) -> List[TrendRow]:
    """Trend rows for every (selected) metric of entries of one kind.

    The only code that turns ledger entries into verdicts: ``repro
    history``, ``repro perf history`` and ``repro perf gate`` all
    render these rows.  ``metrics`` filters by
    substring match (so ``--metric e2`` selects every E2 scalar);
    ``last`` truncates each series to its newest N points before judging.

    Run rows take ``window`` (the detector's trailing window, default
    :data:`RUN_WINDOW`, which also bounds the warm-up) and ``threshold``
    (its relative noise floor, default :data:`RUN_THRESHOLD`).  Perf rows
    judge with the detector's fixed constants only, so passing either for
    perf entries is a ``ValueError``, as is mixing run and perf entries.
    """
    kinds = {e.kind for e in entries}
    if len(kinds) > 1:
        raise ValueError("history needs entries of one kind, got both")
    perf = kinds == {"perf"}
    if perf:
        if window is not None or threshold is not None:
            raise ValueError(
                "perf verdicts use the fixed detector constants; "
                "window and threshold tune run entries only"
            )
        window, threshold = changepoint.DEFAULT_WINDOW, changepoint.DEFAULT_MIN_REL
    else:
        window = RUN_WINDOW if window is None else window
        threshold = RUN_THRESHOLD if threshold is None else threshold
    if window < 1:
        raise ValueError("window must be positive")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if last is not None and last < 1:
        raise ValueError("last must be positive")
    detect_window = max(window, 2)
    min_history = changepoint.MIN_HISTORY
    if not perf:
        min_history = min(min_history, detect_window)
    rows: List[TrendRow] = []
    for metric, values in sorted(metric_series(list(entries)).items()):
        if metrics and not any(m in metric for m in metrics):
            continue
        if last is not None:
            values = values[-last:]
        point = changepoint.detect(
            metric,
            values,
            window=detect_window,
            min_history=min_history,
            min_rel=threshold,
        )
        verdict = point.status
        if point.moved:
            verdict = (
                changepoint.classify(
                    point, changepoint.metric_orientation(metric)
                )
                if perf
                else "drift"
            )
        rows.append(TrendRow(metric, tuple(values), point, verdict, window))
    return rows


def render_history(
    entries: Sequence[LedgerEntry],
    *,
    metrics: Optional[Sequence[str]] = None,
    window: Optional[int] = None,
    threshold: Optional[float] = None,
    last: Optional[int] = None,
) -> str:
    """The ``repro history`` / ``repro perf history`` terminal view."""
    if not entries:
        return "(empty ledger)"
    rows = history_rows(
        entries, metrics=metrics, window=window, threshold=threshold, last=last
    )
    if not rows:
        return "(no matching metrics in ledger)"

    run_keys = list(dict.fromkeys(e.run_key() for e in entries))
    names = sorted({e.name for e in entries})
    noun = "benches" if entries[0].kind == "perf" else "experiments"
    stamps = [e.created_utc() for e in entries if e.created_utc()]
    header = [
        f"ledger: {len(entries)} entries, {len(run_keys)} run key(s), "
        f"{noun}: {', '.join(names)}"
    ]
    if stamps:
        header.append(f"span  : {min(stamps)} .. {max(stamps)}")

    width = max(len(r.metric) for r in rows)
    spark_w = max(r.n_runs for r in rows)
    lines = []
    flagged = 0
    for r in rows:
        p = r.point
        spark = sparkline(r.values).rjust(spark_w)
        base = "       --" if p.median is None else f"{p.median:9.4g}"
        delta = ""
        if p.change is not None:
            delta = f"  {p.change:+7.1%} vs median[{min(r.window, r.n_runs - 1)}]"
        flag = ""
        if r.verdict == "warmup":
            flag = "  (warmup)"
        elif r.verdict != "stable":
            flag = f"  << {r.verdict}"
            flagged += 1
        lines.append(
            f"{r.metric:<{width}}  {spark}  latest {p.latest:9.4g}  "
            f"base {base}{delta}{flag}"
        )
    footer = (
        f"{flagged} metric(s) moved beyond their median+MAD noise band"
        if flagged
        else "no movement beyond the median+MAD noise band"
    )
    return "\n".join(header + [""] + lines + ["", footer])

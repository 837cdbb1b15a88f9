"""Robust change-point detection: the repo's one drift detector.

Every longitudinal verdict — ``repro history`` over experiment scalars,
``repro perf history``, ``repro perf gate`` and ``repro perf report``
over benchmark series — comes from :func:`detect`, and its one caller
is :func:`repro.telemetry.history.history_rows`.  A rolling *mean*
would not do: one outlier run (a cold cache, a noisy CI neighbour)
both pollutes the baseline and fires the flag.  Statistic-based RO-PUF analysis (Wilde et al., arXiv
1910.07068) makes the general point that monitoring claims only hold up
under robust statistics; this module applies it to the repo's own data.

**Noise model** (the documented contract the verdicts rest on):

* A benchmark sample is ``true cost + noise`` where the noise is
  dominated by *additive, non-negative* scheduling/thermal interference
  — which is why the benchmark harness records best-of-N minima
  (:func:`benchmarks._common.best_of`), and why the hook budget
  (``benchmarks/bench_hooks.py``) multiplies per-call costs by call
  counts instead of differencing two noisy wall times.  Even those
  minima jitter run-to-run.
* The rolling baseline is therefore the **median** of the trailing
  ``window`` runs, and the scale estimate is the **MAD** (median
  absolute deviation, scaled by 1.4826 for consistency with a normal
  sigma): both tolerate up to half the window being outliers, so one
  anomalous ledger entry can neither hide a regression nor fake one.
* A verdict fires only when the latest value moves beyond
  ``max(Z * 1.4826 * MAD, min_rel * |median|)`` — the MAD term adapts
  to each metric's own measured noise, the relative floor keeps a
  dead-quiet series (MAD == 0 after identical repeats) from flagging
  microscopic drift, and :data:`Z` is a high constant (4) because a
  perf gate that cries wolf gets deleted.
* Perf series are judged with the constants below and nothing else
  (window :data:`DEFAULT_WINDOW`, warm-up :data:`MIN_HISTORY`,
  :data:`Z`, floor :data:`DEFAULT_MIN_REL`), so every ``repro perf``
  view gives the same verdict; only ``repro history``'s run view
  retunes the window and the floor.
* **Warm-up**: with fewer than ``min_history`` prior runs the detector
  returns ``warmup`` and never fires — a 3-run ledger has no noise
  estimate worth trusting, so it cannot gate.

Verdicts are two-sided: movement is classified ``up`` or ``down``, and
:func:`classify` turns movement into ``regress``/``improve`` given the
metric's orientation (:func:`metric_orientation` knows the repo's
conventions: ``*_s`` timings regress upward, ``throughput`` regresses
downward, experiment scalars have no universal direction and never
gate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Optional, Sequence

#: MAD-to-sigma consistency constant for normally distributed noise
MAD_CONSISTENCY = 1.4826

#: prior runs required before the detector may fire at all
MIN_HISTORY = 5

#: trailing-window length the baseline is computed over (perf: fixed)
DEFAULT_WINDOW = 10

#: robust z-score a movement must exceed
Z = 4.0

#: relative floor (vs |median|) a movement must also exceed (perf: fixed)
DEFAULT_MIN_REL = 0.05


@dataclass(frozen=True)
class ChangePoint:
    """One metric's verdict against its own robust rolling baseline."""

    metric: str
    latest: float
    n_history: int  # prior runs available (before windowing)
    status: str  # "warmup" | "stable" | "up" | "down"
    median: Optional[float] = None  # trailing-window median baseline
    mad: Optional[float] = None  # raw median absolute deviation
    sigma: Optional[float] = None  # MAD_CONSISTENCY * mad
    threshold: Optional[float] = None  # the absolute band half-width used
    change: Optional[float] = None  # (latest - median) / |median|
    z: Optional[float] = None  # (latest - median) / sigma, inf if sigma 0

    @property
    def moved(self) -> bool:
        return self.status in ("up", "down")


def detect(
    metric: str,
    values: Sequence[float],
    *,
    window: int = DEFAULT_WINDOW,
    min_history: int = MIN_HISTORY,
    min_rel: float = DEFAULT_MIN_REL,
) -> ChangePoint:
    """Judge the latest of ``values`` against its trailing-window baseline.

    ``values`` is one metric's full series in chronological order; the
    last element is the candidate, everything before it is history.
    """
    if not values:
        raise ValueError("detect() needs at least one value")
    if window < 2:
        raise ValueError("window must be >= 2")
    if min_history < 2:
        raise ValueError("min_history must be >= 2 (one run is not history)")
    latest = float(values[-1])
    history = [float(v) for v in values[:-1]][-window:]
    n_history = len(values) - 1
    if len(history) < min_history:
        return ChangePoint(
            metric=metric, latest=latest, n_history=n_history, status="warmup"
        )
    base = median(history)
    mad = median(abs(v - base) for v in history)
    sigma = MAD_CONSISTENCY * mad
    threshold = max(Z * sigma, min_rel * abs(base))
    delta = latest - base
    if base != 0.0:
        change: Optional[float] = delta / abs(base)
    else:
        change = 0.0 if delta == 0.0 else math.inf
    z_score: Optional[float]
    if sigma > 0.0:
        z_score = delta / sigma
    else:
        z_score = 0.0 if delta == 0.0 else math.copysign(math.inf, delta)
    if threshold > 0.0:
        status = "stable" if abs(delta) <= threshold else (
            "up" if delta > 0 else "down"
        )
    else:
        # a perfectly flat zero baseline: any movement at all is movement
        status = "stable" if delta == 0.0 else ("up" if delta > 0 else "down")
    return ChangePoint(
        metric=metric,
        latest=latest,
        n_history=n_history,
        status=status,
        median=base,
        mad=mad,
        sigma=sigma,
        threshold=threshold,
        change=change,
        z=z_score,
    )


def metric_orientation(name: str) -> Optional[bool]:
    """``True`` if bigger is better, ``False`` if smaller, ``None`` unknown.

    Encodes the repo's naming conventions: wall times (``*_s``), latency
    quantiles (``.p50``/``.p95``/``.p99``/``mean``/``max`` of a
    histogram site), overheads and RSS footprints are better when
    smaller; throughputs (``chips_per_s``, ``chips_years_per_s``,
    ``throughput``) and ``speedup*`` ratios are better when bigger.
    Anything else — experiment scalars like flip percentages, whose
    "better" is the anchor registry's call — returns ``None`` and must
    not be gated here.
    """
    leaf = name.rsplit(":", 1)[-1]
    key = leaf.rsplit(".", 1)[-1].lower()
    if key in ("p50", "p95", "p99") and "." in leaf:
        return False
    if key in ("p50_ms", "p95_ms", "p99_ms", "p999_ms"):
        # the service layer's flat latency quantiles (service.auth.p99_ms)
        return False
    if "chips_per_s" in leaf or "chips_years_per_s" in leaf:
        return True
    if "throughput" in leaf or leaf.startswith("speedup") or "speedup_" in leaf:
        return True
    if key.endswith("per_s"):
        # rate metrics (auth_per_s, requests_per_s, rate_per_s): bigger
        # is better — checked before the *_s wall-time rule, which would
        # otherwise misread the suffix as a duration
        return True
    if key.endswith("_s") or key.endswith("_ns") or key in ("wall_s",):
        return False
    if "overhead" in key or "rss" in key:
        return False
    return None


def classify(point: ChangePoint, higher_is_better: Optional[bool]) -> str:
    """Map a movement verdict onto ``regress``/``improve``.

    Returns one of ``warmup``, ``stable``, ``regress``, ``improve`` or —
    when the orientation is unknown — ``shift`` (reported, never gated).
    """
    if not point.moved:
        return point.status
    if higher_is_better is None:
        return "shift"
    worse_direction = "down" if higher_is_better else "up"
    return "regress" if point.status == worse_direction else "improve"

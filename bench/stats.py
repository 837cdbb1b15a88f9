"""Order statistics shared by the benchmark runner, the load generator and
the tests.

A percentile is reported only when it has support: at least
``MIN_BEYOND`` samples lie beyond it, so one stray sample cannot move it.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def supported(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples put at least ``min_beyond`` strictly beyond
    the nearest-rank ``q`` percentile."""
    return n > 0 and n - max(1, math.ceil(q * n)) >= min_beyond


def supported_percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The ``q`` percentile, or ``None`` when too few samples lie beyond it."""
    if not supported(len(samples), q, min_beyond):
        return None
    return percentile(samples, q)


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median, with the
    quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else math.inf

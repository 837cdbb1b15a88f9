"""Streaming log-bucket histograms: the registry's distribution metric.

Counters answer "how much work", gauges "what is it now"; neither can
answer "what is p99" — the primitive a latency SLO (the ROADMAP's fleet
service) gates on.  :class:`Histogram` is the missing third metric type:
a fixed-layout, log-spaced bucket histogram that

* streams — :meth:`observe` is O(1), no sample retention, so it can sit
  on per-block kernel call sites;
* merges — two histograms with the same layout combine by summing
  bucket counts, which is how the parallel engine folds worker
  distributions into the coordinator's without approximation error
  beyond the shared bucket resolution;
* answers quantiles with a *documented* bucket-relative error bound.

Bucket layout (the contract, shared by every process that merges):
bucket ``i`` covers ``[GROWTH**i, GROWTH**(i+1))`` with
``GROWTH = 2**(1/9)`` (~8.01 % per bucket, ~9 buckets per octave).  A
quantile query returns the geometric midpoint ``GROWTH**(i+0.5)`` of the
selected bucket, clamped into the exact observed ``[min, max]``; the
worst-case relative error is therefore ``sqrt(GROWTH) - 1`` ~= 3.9 %,
inside the advertised <= 5 % bound.  Values <= 0 (a zero-duration clock
read) land in a dedicated underflow bucket and report as ``min``.
Count, sum, min and max are tracked exactly, so ``count``/``mean``/
``max`` (and any ``q >= 1`` query) carry no bucketing error at all.

The layout is *fixed*, not adaptive: mergeability across processes (and
across artefacts written weeks apart) is worth more than per-run bucket
tuning.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence

#: fixed bucket growth factor: 2**(1/9) puts 9 buckets per octave and
#: bounds the quantile midpoint error at sqrt(GROWTH)-1 ~= 3.93 % < 5 %
GROWTH = 2.0 ** (1.0 / 9.0)

#: worst-case relative error of a bucketed quantile (documented bound)
QUANTILE_RELATIVE_ERROR = math.sqrt(GROWTH) - 1.0

_INV_LOG_GROWTH = 1.0 / math.log(GROWTH)

#: quantiles every summary reports, in ``summary()`` key order
SUMMARY_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


class Histogram:
    """One streaming distribution: log-spaced buckets + exact extremes.

    Instances are cheap (one dict, five scalars) and are created lazily
    by :meth:`Tracer.observe <repro.telemetry.tracer.Tracer.observe>`;
    they hold no reference to the tracer, so a merged or deserialised
    histogram is a plain value object.
    """

    __slots__ = ("buckets", "count", "total", "min", "max", "n_zero")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.n_zero = 0  # underflow: values <= 0

    # ---- recording ---------------------------------------------------

    def observe(self, value: float) -> None:
        """Fold one sample in (O(1): one log, one dict update)."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.n_zero += 1
            return
        idx = math.floor(math.log(value) * _INV_LOG_GROWTH)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def observe_many(self, values: Sequence[float]) -> None:
        for value in values:
            self.observe(value)

    # ---- queries -----------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) within the bucket error bound.

        ``q >= 1`` returns the exact maximum, ``q <= 0`` the exact
        minimum; interior quantiles return the geometric midpoint of the
        covering bucket, clamped into ``[min, max]``.
        """
        if self.count == 0:
            return math.nan
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        seen = self.n_zero
        if seen >= target and self.n_zero:
            return self.min
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= target:
                mid = GROWTH ** (idx + 0.5)
                return min(max(mid, self.min), self.max)
        return self.max  # pragma: no cover - counts always sum to count

    def summary(self) -> Dict[str, float]:
        """The flat scalar digest manifests, ledgers and benches carry."""
        out: Dict[str, float] = {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
        }
        for name, q in SUMMARY_QUANTILES:
            out[name] = self.quantile(q)
        return out

    def quantiles(
        self, pairs: Sequence["tuple[str, float]"]
    ) -> Dict[str, float]:
        """Named quantiles beyond the fixed summary set.

        The SLO layer gates tail quantiles (p999) that
        :data:`SUMMARY_QUANTILES` deliberately omits from every summary;
        this queries them on demand: ``h.quantiles((("p999", 0.999),))``.
        """
        return {name: self.quantile(q) for name, q in pairs}

    # ---- merge / serialise -------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place (returns self).

        Exact for count/sum/min/max; bucket counts add because every
        histogram shares the one fixed layout — the property the
        cross-worker quantile guarantee rests on.
        """
        self.count += other.count
        self.total += other.total
        self.n_zero += other.n_zero
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready state; ``from_dict`` round-trips it exactly."""
        return {
            "growth": GROWTH,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zero": self.n_zero,
            "buckets": {str(idx): n for idx, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        growth = data.get("growth")
        if growth is None or abs(growth - GROWTH) > 1e-12:
            raise ValueError(
                f"histogram bucket layout mismatch: growth {growth!r} != "
                f"{GROWTH!r} (merging different layouts would silently "
                "corrupt quantiles)"
            )
        hist = cls()
        hist.count = int(data["count"])
        hist.total = float(data["sum"])
        hist.n_zero = int(data.get("zero", 0))
        hist.min = math.inf if data.get("min") is None else float(data["min"])
        hist.max = -math.inf if data.get("max") is None else float(data["max"])
        hist.buckets = {
            int(idx): int(n) for idx, n in (data.get("buckets") or {}).items()
        }
        return hist

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return "<Histogram empty>"
        return (
            f"<Histogram n={self.count} p50={self.quantile(0.5):.3g} "
            f"p99={self.quantile(0.99):.3g} max={self.max:.3g}>"
        )


def summarise(histograms: Dict[str, "Histogram"]) -> Dict[str, Dict[str, float]]:
    """``{name: summary}`` over a histogram registry, sorted by name."""
    return {name: histograms[name].summary() for name in sorted(histograms)}


def flatten_summaries(
    histograms: Dict[str, "Histogram"], quantiles: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Ledger-ready flat scalars: ``{"<name>.p99": value, ...}``.

    Non-finite values (an empty histogram's mean) are dropped rather than
    written — the ledger's own writer would silently discard them, and a
    missing key is the documented way "no data" manifests there.
    """
    flat: Dict[str, float] = {}
    for name, summary in summarise(histograms).items():
        for key, value in summary.items():
            if quantiles is not None and key not in quantiles:
                continue
            if isinstance(value, float) and not math.isfinite(value):
                continue
            flat[f"{name}.{key}"] = float(value)
    return flat

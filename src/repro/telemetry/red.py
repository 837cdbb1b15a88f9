"""RED metrics: request Rate, Error taxonomy, Duration per endpoint.

The serving layer's vital signs, named after the RED method (rate /
errors / duration) the SRE literature prescribes for request-driven
services.  One :class:`RedMetrics` instance aggregates, per endpoint:

* **rate** — a monotone request counter plus the wall-clock window it
  accumulated over, so ``requests / elapsed`` is an honest sustained
  rate rather than an instantaneous one;
* **errors** — a taxonomy counter per error class (``unknown_chip``,
  ``bad_request``, ``key_recovery``, ``internal``, ...).  A *rejected*
  authentication is deliberately **not** an error: refusing an impostor
  is the service doing its job, and folding rejections into availability
  would let an attack masquerade as an outage;
* **duration** — one streaming :class:`~repro.telemetry.histogram.Histogram`
  per ``endpoint × outcome`` (milliseconds), so "p99 of successful
  auths" and "p99 of failures" never blur into one meaningless mix.

The class is plain bookkeeping — dict increments and one O(1) histogram
observe per request, no locks (the asyncio service mutates it from one
loop) and no knowledge of the tracer.  :meth:`publish` folds the state
into an installed tracer so ``--metrics-out`` / manifests / the perf
ledger see the service's distributions through the existing pipeline,
and :meth:`metrics` flattens everything into the scalar map the SLO
spec (:mod:`repro.service.slo`) judges.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, Optional, Tuple

from .histogram import Histogram

#: format version of the serialised RED section, bumped on layout changes
RED_FORMAT = 1

#: outcomes that are *not* errors: the request was served correctly,
#: whatever the verdict.  Everything else is an error class.
NON_ERROR_OUTCOMES = ("ok", "rejected")

#: the error taxonomy the service emits (open set — unknown classes
#: still count, these are the documented ones)
ERROR_CLASSES = ("bad_request", "unknown_chip", "key_recovery", "internal")

#: tail quantiles the SLO layer gates, beyond the standard summary set
SLO_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


class RedMetrics:
    """Per-endpoint RED aggregation for one service lifetime."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.t0 = clock()
        #: endpoint -> total requests (any outcome)
        self.requests: Dict[str, int] = {}
        #: endpoint -> {error class -> count}
        self.errors: Dict[str, Dict[str, int]] = {}
        #: (endpoint, outcome) -> duration histogram in milliseconds
        self.durations: Dict[Tuple[str, str], Histogram] = {}
        #: helper-store lines the service could not load at startup
        self.store_skipped_lines = 0

    # ---- recording -----------------------------------------------------

    def observe(self, endpoint: str, outcome: str, duration_s: float) -> None:
        """Fold one finished request in (the only hot-path entry point)."""
        self.requests[endpoint] = self.requests.get(endpoint, 0) + 1
        if outcome not in NON_ERROR_OUTCOMES:
            per = self.errors.setdefault(endpoint, {})
            per[outcome] = per.get(outcome, 0) + 1
        key = (endpoint, outcome)
        hist = self.durations.get(key)
        if hist is None:
            hist = self.durations[key] = Histogram()
        hist.observe(duration_s * 1e3)

    # ---- queries ---------------------------------------------------------

    def elapsed_s(self) -> float:
        return max(self._clock() - self.t0, 0.0)

    def total_requests(self) -> int:
        return sum(self.requests.values())

    def total_errors(self) -> int:
        return sum(sum(per.values()) for per in self.errors.values())

    def error_count(self, endpoint: str) -> int:
        return sum(self.errors.get(endpoint, {}).values())

    def availability(self, endpoint: str) -> float:
        """Fraction of requests served without error (1.0 when idle)."""
        n = self.requests.get(endpoint, 0)
        if n == 0:
            return 1.0
        return 1.0 - self.error_count(endpoint) / n

    def rate_per_s(self, endpoint: str) -> float:
        elapsed = self.elapsed_s()
        if elapsed <= 0.0:
            return 0.0
        return self.requests.get(endpoint, 0) / elapsed

    def endpoint_histogram(
        self, endpoint: str, outcome: Optional[str] = "ok"
    ) -> Histogram:
        """The duration histogram for ``endpoint`` (``outcome=None``
        merges every outcome into one fresh histogram)."""
        if outcome is not None:
            return self.durations.get((endpoint, outcome)) or Histogram()
        merged = Histogram()
        for (ep, _oc), hist in self.durations.items():
            if ep == endpoint:
                merged.merge(hist)
        return merged

    def metrics(self) -> Dict[str, float]:
        """The flat, SLO-gateable scalar map.

        Keys: ``<endpoint>.requests`` / ``.rate_per_s`` /
        ``.availability`` / ``.error_rate``, plus ``.p50_ms`` / ``.p99_ms``
        / ``.p999_ms`` of the *successful* (``ok``) durations — latency
        objectives are promises about served requests, and an error fast-
        path must not be allowed to flatter the tail.  Non-finite values
        (no successes yet) are dropped, so an SLO sees them as missing.
        A non-zero :attr:`store_skipped_lines` adds
        ``store.skipped_lines``.
        """
        out: Dict[str, float] = {}
        if self.store_skipped_lines:
            out["store.skipped_lines"] = float(self.store_skipped_lines)
        for endpoint in sorted(self.requests):
            n = self.requests[endpoint]
            out[f"{endpoint}.requests"] = float(n)
            out[f"{endpoint}.rate_per_s"] = self.rate_per_s(endpoint)
            out[f"{endpoint}.availability"] = self.availability(endpoint)
            out[f"{endpoint}.error_rate"] = (
                self.error_count(endpoint) / n if n else 0.0
            )
            ok_hist = self.endpoint_histogram(endpoint, "ok")
            for name, value in ok_hist.quantiles(SLO_QUANTILES).items():
                if isinstance(value, float) and not math.isfinite(value):
                    continue
                out[f"{endpoint}.{name}_ms"] = float(value)
        return out

    # ---- export ----------------------------------------------------------

    @staticmethod
    def site(endpoint: str, outcome: str) -> str:
        """The histogram-registry key one duration series publishes as."""
        return f"service.{endpoint}.{outcome}.ms"

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-site summaries in the shape ``benchmarks._common.emit``
        and :func:`entry_from_bench_payload` ingest (p50/p99 tracked)."""
        return {
            self.site(ep, oc): hist.summary()
            for (ep, oc), hist in sorted(self.durations.items())
        }

    def to_dict(self) -> Dict[str, Any]:
        """The JSON ``red`` section of a service payload.

        Full histogram bucket states (not summaries) ride along so a
        reader can recompute any quantile — the same
        full-state-over-digest choice METRICS_FORMAT 3 made.
        """
        endpoints: Dict[str, Any] = {}
        for endpoint in sorted(self.requests):
            outcomes = {
                oc: hist.count
                for (ep, oc), hist in sorted(self.durations.items())
                if ep == endpoint
            }
            endpoints[endpoint] = {
                "requests": self.requests[endpoint],
                "rate_per_s": self.rate_per_s(endpoint),
                "availability": self.availability(endpoint),
                "errors": dict(sorted(self.errors.get(endpoint, {}).items())),
                "outcomes": outcomes,
            }
        return {
            "format": RED_FORMAT,
            "elapsed_s": self.elapsed_s(),
            "endpoints": endpoints,
            "durations_ms": {
                self.site(ep, oc): hist.to_dict()
                for (ep, oc), hist in sorted(self.durations.items())
            },
        }

    def publish(self, tracer: Any) -> None:
        """Fold counters + duration histograms into ``tracer``.

        Counter names mirror the flat metric keys under a ``service.``
        prefix; histograms merge under their :meth:`site` keys, so the
        existing exports (``--metrics-out``, manifest summaries, ledger
        flattening) carry the service's distributions unchanged.
        """
        for endpoint, n in sorted(self.requests.items()):
            tracer.count(f"service.{endpoint}.requests", float(n))
            for cls, c in sorted(self.errors.get(endpoint, {}).items()):
                tracer.count(f"service.{endpoint}.errors.{cls}", float(c))
        if self.store_skipped_lines:
            tracer.count(
                "service.store.skipped_lines", float(self.store_skipped_lines)
            )
        for (ep, oc), hist in sorted(self.durations.items()):
            tracer.merge_histogram(self.site(ep, oc), hist)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RedMetrics requests={self.total_requests()} "
            f"errors={self.total_errors()} endpoints={sorted(self.requests)}>"
        )

"""RedMetrics: rate/error/duration bookkeeping and its export shapes."""

import pytest

from repro.telemetry import Tracer
from repro.telemetry.histogram import Histogram
from repro.telemetry.red import RED_FORMAT, RedMetrics


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def red():
    return RedMetrics(clock=FakeClock())


class TestObserve:
    def test_counts_requests_per_endpoint(self, red):
        red.observe("auth", "ok", 0.001)
        red.observe("auth", "rejected", 0.002)
        red.observe("enroll", "ok", 0.010)
        assert red.requests == {"auth": 2, "enroll": 1}
        assert red.total_requests() == 3

    def test_rejected_is_not_an_error(self, red):
        """Refusing an impostor is the service working — availability
        must not punish it, or an attack reads as an outage."""
        red.observe("auth", "ok", 0.001)
        red.observe("auth", "rejected", 0.001)
        assert red.total_errors() == 0
        assert red.availability("auth") == 1.0

    def test_error_taxonomy_per_class(self, red):
        red.observe("auth", "ok", 0.001)
        red.observe("auth", "unknown_chip", 0.001)
        red.observe("auth", "unknown_chip", 0.001)
        red.observe("auth", "bad_request", 0.001)
        assert red.errors["auth"] == {"unknown_chip": 2, "bad_request": 1}
        assert red.error_count("auth") == 3
        assert red.availability("auth") == pytest.approx(0.25)

    def test_idle_endpoint_availability_is_one(self, red):
        assert red.availability("auth") == 1.0

    def test_rate_uses_elapsed_window(self, red):
        for _ in range(10):
            red.observe("auth", "ok", 0.001)
        red._clock.t = 2.0
        assert red.rate_per_s("auth") == pytest.approx(5.0)

    def test_durations_split_by_outcome(self, red):
        red.observe("auth", "ok", 0.001)
        red.observe("auth", "unknown_chip", 0.100)
        ok = red.endpoint_histogram("auth", "ok")
        assert ok.count == 1
        merged = red.endpoint_histogram("auth", None)
        assert merged.count == 2


class TestMetrics:
    def test_flat_keys(self, red):
        red.observe("auth", "ok", 0.001)
        red._clock.t = 1.0
        metrics = red.metrics()
        for suffix in (
            "requests",
            "rate_per_s",
            "availability",
            "error_rate",
            "p50_ms",
            "p99_ms",
            "p999_ms",
        ):
            assert f"auth.{suffix}" in metrics

    def test_latency_judged_over_ok_only(self, red):
        """An error fast-path must not flatter the tail quantiles."""
        red.observe("auth", "ok", 0.010)
        red.observe("auth", "unknown_chip", 0.0001)
        metrics = red.metrics()
        assert metrics["auth.p50_ms"] == pytest.approx(10.0, rel=0.15)

    def test_no_successes_drops_latency_keys(self, red):
        red.observe("auth", "unknown_chip", 0.001)
        metrics = red.metrics()
        assert "auth.p99_ms" not in metrics
        assert metrics["auth.error_rate"] == 1.0


class TestExport:
    def test_to_dict_shape(self, red):
        red.observe("auth", "ok", 0.001)
        red.observe("auth", "rejected", 0.002)
        red.observe("auth", "unknown_chip", 0.003)
        state = red.to_dict()
        assert state["format"] == RED_FORMAT
        block = state["endpoints"]["auth"]
        assert block["requests"] == 3
        assert block["errors"] == {"unknown_chip": 1}
        assert block["outcomes"] == {"ok": 1, "rejected": 1, "unknown_chip": 1}
        assert sum(block["outcomes"].values()) == block["requests"]
        assert set(state["durations_ms"]) == {
            "service.auth.ok.ms",
            "service.auth.rejected.ms",
            "service.auth.unknown_chip.ms",
        }

    def test_durations_roundtrip_as_histograms(self, red):
        red.observe("auth", "ok", 0.005)
        state = red.to_dict()
        hist = Histogram.from_dict(state["durations_ms"]["service.auth.ok.ms"])
        assert hist.count == 1

    def test_summaries_match_bench_shape(self, red):
        red.observe("auth", "ok", 0.001)
        summaries = red.summaries()
        summary = summaries["service.auth.ok.ms"]
        assert {"count", "p50", "p99"} <= set(summary)

    def test_publish_folds_into_tracer(self, red):
        red.observe("auth", "ok", 0.001)
        red.observe("auth", "unknown_chip", 0.002)
        tracer = Tracer()
        red.publish(tracer)
        assert tracer.counters["service.auth.requests"] == 2.0
        assert tracer.counters["service.auth.errors.unknown_chip"] == 1.0
        assert tracer.histograms["service.auth.ok.ms"].count == 1

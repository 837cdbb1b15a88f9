"""Synthetic fleet aging + run_loadgen + the artefact payload shape."""

import asyncio

import numpy as np
import pytest

from repro.service import (
    DEFAULT_SLOS,
    FleetService,
    FleetSpec,
    SyntheticFleet,
    loadgen_payload,
    run_loadgen,
)
from repro.service.loadgen import DESIGN_FLIPS_10Y, SAMPLE_KEEP
from repro.telemetry.histogram import Histogram


class TestFleetSpec:
    def test_defaults(self):
        spec = FleetSpec()
        assert spec.design in DESIGN_FLIPS_10Y

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            FleetSpec(design="mystery-puf")

    def test_bounds(self):
        with pytest.raises(ValueError):
            FleetSpec(n_chips=0)
        with pytest.raises(ValueError):
            FleetSpec(noise_pct=50.0)


class TestSyntheticFleet:
    def test_flip_rate_anchored_at_paper_10y_numbers(self):
        """At the 10-year horizon the aging term equals the paper's flip
        percentage (32% conventional RO, 7.7% ARO) plus the noise floor."""
        for design, flips10 in DESIGN_FLIPS_10Y.items():
            fleet = SyntheticFleet(
                FleetSpec(design=design, noise_pct=1.0), response_bits=756
            )
            assert fleet.flip_rate(10.0) == pytest.approx(
                flips10 / 100.0 + 0.01
            )

    def test_flip_rate_sqrt_shape_and_cap(self):
        fleet = SyntheticFleet(FleetSpec(noise_pct=0.0), response_bits=756)
        assert fleet.flip_rate(0.0) == 0.0
        assert fleet.flip_rate(2.5) == pytest.approx(fleet.flip_rate(10.0) / 2)
        aggressive = SyntheticFleet(
            FleetSpec(design="ro-puf", noise_pct=40.0), response_bits=756
        )
        assert aggressive.flip_rate(1000.0) == 0.499  # never reaches 50%

    def test_read_flips_about_the_expected_fraction(self):
        fleet = SyntheticFleet(
            FleetSpec(seed=3, design="ro-puf", noise_pct=0.0),
            response_bits=4096,
        )
        aged = fleet.read(0, years=10.0)
        observed = np.mean(aged != fleet.golden[0])
        assert observed == pytest.approx(0.32, abs=0.04)

    def test_impostor_reads_other_silicon(self):
        fleet = SyntheticFleet(FleetSpec(n_chips=2, seed=0), response_bits=2048)
        impostor = fleet.impostor_read(0, years=0.0)
        genuine_d = np.mean(impostor != fleet.golden[1])
        claimed_d = np.mean(impostor != fleet.golden[0])
        assert genuine_d < 0.1  # near its real silicon
        assert 0.4 < claimed_d  # far from the claimed identity

    def test_reads_are_seeded_reproducible(self):
        a = SyntheticFleet(FleetSpec(seed=5), response_bits=756)
        b = SyntheticFleet(FleetSpec(seed=5), response_bits=756)
        assert np.array_equal(a.read(0, 5.0), b.read(0, 5.0))


class TestRunLoadgen:
    def _run(self, **kwargs):
        service = FleetService(seed=0)
        fleet = SyntheticFleet(
            FleetSpec(n_chips=3, seed=0), service.response_bits
        )
        return asyncio.run(run_loadgen(service, fleet, **kwargs))

    def test_request_bound_run(self):
        report = self._run(n_requests=40, concurrency=4, years=5.0)
        assert report.n_enrolled == 3
        assert report.n_requests == 40
        assert sum(report.outcomes.values()) == 40
        assert report.auth_per_s > 0
        assert len(report.samples) <= SAMPLE_KEEP
        sample = report.samples[-1]
        assert {"endpoint", "outcome", "duration_ms", "trace_id"} <= set(sample)

    def test_impostor_fraction_produces_rejections(self):
        report = self._run(
            n_requests=60, concurrency=4, years=1.0, impostor_fraction=0.5
        )
        assert report.outcomes.get("rejected", 0) > 0
        assert report.outcomes.get("ok", 0) > 0

    def test_key_fraction_hits_key_endpoint(self):
        report = self._run(
            n_requests=20, concurrency=2, years=1.0, key_fraction=1.0
        )
        assert report.red.requests.get("key", 0) == 20

    def test_exactly_one_bound_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            self._run()
        with pytest.raises(ValueError, match="exactly one"):
            self._run(n_requests=10, duration_s=1.0)

    def test_duration_bound_run_terminates(self):
        report = self._run(duration_s=0.2, concurrency=2, years=1.0)
        assert report.n_requests > 0
        assert report.wall_s < 5.0


class TestLoadgenPayload:
    @pytest.fixture(scope="class")
    def payload(self):
        service = FleetService(seed=0)
        fleet = SyntheticFleet(
            FleetSpec(n_chips=2, seed=1), service.response_bits
        )
        report = asyncio.run(
            run_loadgen(service, fleet, n_requests=30, concurrency=2, years=2.0)
        )
        return loadgen_payload(
            report, slos=DEFAULT_SLOS, manifest={"git_sha": "abc"}
        )

    def test_bench_shaped_sections(self, payload):
        assert payload["name"] == "loadgen"
        for key in ("auth_per_s", "requests", "enrolled", "errors", "wall_s"):
            assert key in payload["values"]
        assert payload["values"]["requests"] == 30.0
        assert payload["manifest"] == {"git_sha": "abc"}
        summary = payload["histograms"]["service.auth.ok.ms"]
        assert {"count", "p50", "p99"} <= set(summary)

    def test_service_section(self, payload):
        service = payload["service"]
        assert service["format"] == 1
        assert service["fleet"]["n_chips"] == 2
        assert "auth.p99_ms" in service["metrics"]
        assert service["red"]["endpoints"]["auth"]["requests"] == 30
        hist = Histogram.from_dict(
            service["red"]["durations_ms"]["service.auth.ok.ms"]
        )
        assert hist.count > 0

    def test_slo_verdicts_ride_along(self, payload):
        names = {v["name"] for v in payload["service"]["slo"]}
        assert names == {s.name for s in DEFAULT_SLOS}
        for verdict in payload["service"]["slo"]:
            assert verdict["status"] in ("pass", "warn", "fail", "missing")

    def test_payload_is_json_clean(self, payload):
        import json

        json.dumps(payload)  # no numpy scalars / arrays leaked through

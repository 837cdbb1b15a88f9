"""Median+MAD change-point detection: warm-up, robustness, orientation."""

import math

import pytest

from repro.telemetry.changepoint import (
    DEFAULT_MIN_REL,
    DEFAULT_WINDOW,
    MAD_CONSISTENCY,
    MIN_HISTORY,
    Z,
    classify,
    detect,
    metric_orientation,
)

#: six quiet runs (~0.5 % jitter) — enough history to leave warm-up
STABLE = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1]


class TestWarmup:
    def test_short_series_never_fires(self):
        # 3-run ledger: 2 prior runs < MIN_HISTORY -> warmup, no verdict
        point = detect("m", [100.0, 50.0, 200.0])
        assert point.status == "warmup"
        assert not point.moved
        assert point.median is None and point.threshold is None

    def test_warmup_boundary_is_min_history_prior_runs(self):
        series = STABLE[: MIN_HISTORY + 1]
        assert detect("m", series[:-1]).status == "warmup"
        assert detect("m", series).status != "warmup"

    def test_n_history_counts_prior_runs(self):
        point = detect("m", STABLE + [100.0])
        assert point.n_history == len(STABLE)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            detect("m", [])
        with pytest.raises(ValueError, match="window"):
            detect("m", STABLE, window=1)
        with pytest.raises(ValueError, match="min_history"):
            detect("m", STABLE, min_history=1)


class TestDetection:
    def test_quiet_series_is_stable(self):
        point = detect("m", STABLE + [100.3])
        assert point.status == "stable"
        assert not point.moved

    def test_twenty_percent_drop_fires_down(self):
        point = detect("m", STABLE + [80.0])
        assert point.status == "down"
        assert point.moved
        assert point.change == pytest.approx(-0.2, rel=0.05)

    def test_twenty_percent_rise_fires_up(self):
        point = detect("m", STABLE + [120.0])
        assert point.status == "up"
        assert point.change == pytest.approx(0.2, rel=0.05)

    def test_one_outlier_in_history_cannot_fake_a_regression(self):
        """The MAD property: a single cold-cache run in the window must
        neither widen the band enough to hide movement nor shift the
        baseline enough to flag a quiet latest value."""
        polluted = STABLE + [300.0]  # one wild outlier in history
        quiet = detect("m", polluted + [100.2])
        assert quiet.status == "stable"
        assert quiet.median == pytest.approx(100.15, abs=0.2)
        regressed = detect("m", polluted + [80.0])
        assert regressed.status == "down"

    def test_zero_mad_relative_floor(self):
        """Identical repeats give MAD == 0; the min_rel floor keeps
        microscopic drift quiet while real movement still fires."""
        flat = [100.0] * 6
        assert detect("m", flat + [100.001]).status == "stable"
        point = detect("m", flat + [110.0])
        assert point.status == "up"
        assert point.z == math.inf  # sigma 0, movement -> infinite z

    def test_threshold_is_max_of_mad_band_and_relative_floor(self):
        point = detect("m", STABLE + [100.0], min_rel=0.05)
        expected = max(
            Z * MAD_CONSISTENCY * point.mad, 0.05 * abs(point.median)
        )
        assert point.threshold == pytest.approx(expected)

    def test_flat_zero_baseline(self):
        zeros = [0.0] * 6
        assert detect("m", zeros + [0.0]).status == "stable"
        jump = detect("m", zeros + [1.0])
        assert jump.status == "up"
        assert jump.change == math.inf

    def test_window_truncates_old_history(self):
        # a huge ancient value outside the window must not affect the
        # baseline
        old = [1000.0] * 10
        recent = STABLE
        point = detect("m", old + recent + [100.0], window=len(recent))
        assert point.median == pytest.approx(100.0, abs=1.0)
        assert point.status == "stable"

    def test_defaults_are_documented_values(self):
        assert DEFAULT_WINDOW == 10
        assert DEFAULT_MIN_REL == 0.05
        assert MIN_HISTORY == 5
        assert Z == 4.0


class TestOrientation:
    @pytest.mark.parametrize(
        "name",
        [
            "bench:chips_years_per_s",
            "bench:chips_per_s",
            "speedup_batched",
            "bench:throughput",
        ],
    )
    def test_higher_is_better(self, name):
        assert metric_orientation(name) is True

    @pytest.mark.parametrize(
        "name",
        [
            "bench:wall_s",
            "bench:min_s",
            "bench:batch.sweep.p50",
            "bench:batch.sweep.p99",
            "bench:peak_rss_bytes",
            "bench:enabled_overhead",
        ],
    )
    def test_lower_is_better(self, name):
        assert metric_orientation(name) is False

    @pytest.mark.parametrize(
        "name",
        ["e2.ro-puf.flips_at_10y_pct", "bench:rounds", "uniqueness_pct"],
    )
    def test_experiment_scalars_have_no_orientation(self, name):
        assert metric_orientation(name) is None

    @pytest.mark.parametrize(
        "name",
        ["loadgen:auth_per_s", "service.auth.rate_per_s", "requests_per_s"],
    )
    def test_service_rates_are_higher_is_better(self, name):
        """*_per_s must hit the rate rule before the *_s wall-time rule
        misreads the suffix as a duration."""
        assert metric_orientation(name) is True

    @pytest.mark.parametrize(
        "name",
        ["service.auth.p99_ms", "service.auth.p999_ms", "loadgen:auth.p50_ms"],
    )
    def test_service_latency_is_lower_is_better(self, name):
        assert metric_orientation(name) is False


class TestClassify:
    def test_warmup_and_stable_pass_through(self):
        assert classify(detect("m", [1.0, 2.0]), True) == "warmup"
        assert classify(detect("m", STABLE + [100.0]), True) == "stable"

    def test_throughput_drop_is_regress(self):
        point = detect("chips_years_per_s", STABLE + [80.0])
        assert classify(point, True) == "regress"

    def test_throughput_rise_is_improve(self):
        point = detect("chips_years_per_s", STABLE + [120.0])
        assert classify(point, True) == "improve"

    def test_wall_time_rise_is_regress(self):
        point = detect("wall_s", STABLE + [120.0])
        assert classify(point, False) == "regress"

    def test_unknown_orientation_shifts_but_never_gates(self):
        point = detect("flips_pct", STABLE + [120.0])
        assert classify(point, None) == "shift"

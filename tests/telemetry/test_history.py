"""Ledger history: sparklines and median+MAD movement verdicts."""

import pytest

from repro.telemetry import (
    LedgerEntry,
    RunManifest,
    history_rows,
    render_history,
    sparkline,
)
from repro.telemetry.changepoint import DEFAULT_WINDOW
from repro.telemetry.history import SPARK_BLOCKS


@pytest.fixture(scope="module")
def manifest():
    return RunManifest.collect(seed=5, config={"n_chips": 4})


def entries_for(series, manifest, experiment="e2", key="flips"):
    return [
        LedgerEntry.collect(experiment, {key: v}, manifest) for v in series
    ]


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_ramp_uses_full_range(self):
        s = sparkline([1.0, 2.0, 3.0, 4.0])
        assert s[0] == SPARK_BLOCKS[0]
        assert s[-1] == SPARK_BLOCKS[-1]
        assert len(s) == 4

    def test_flat_series_renders_mid_block(self):
        assert sparkline([5.0, 5.0, 5.0]) == SPARK_BLOCKS[3] * 3

    def test_single_value(self):
        assert sparkline([1.0]) == SPARK_BLOCKS[3]


class TestHistoryRows:
    QUIET = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1]

    def test_short_series_stays_in_warmup(self, manifest):
        entries = entries_for([10.0, 20.0, 30.0], manifest)
        (row,) = history_rows(entries, window=5)
        assert row.verdict == "warmup"
        assert row.point.median is None and row.point.change is None

    def test_window_bounds_the_warmup(self, manifest):
        """A window shorter than MIN_HISTORY ends warm-up sooner."""
        entries = entries_for([10.0, 10.0, 10.0, 20.0], manifest)
        (row,) = history_rows(entries, window=3)
        assert row.verdict == "drift"
        assert row.point.median == pytest.approx(10.0)
        assert row.point.change == pytest.approx(1.0)

    def test_outlier_history_does_not_fake_drift(self, manifest):
        """One wild run in history neither moves the median baseline nor
        fires the flag — the point of the median+MAD discipline."""
        series = self.QUIET + [300.0, 100.2]
        (row,) = history_rows(
            entries_for(series, manifest), window=len(series) - 1
        )
        assert row.verdict == "stable"

    def test_real_movement_flags_drift(self, manifest):
        entries = entries_for(self.QUIET + [80.0], manifest)
        (row,) = history_rows(entries, window=6)
        assert row.verdict == "drift"
        assert row.point.status == "down"
        assert row.point.median == pytest.approx(100.05)  # trailing median

    def test_threshold_is_the_relative_floor(self, manifest):
        """Identical repeats have MAD 0: only the floor keeps a small step
        from flagging."""
        entries = entries_for([10.0] * 5 + [10.5], manifest)
        (quiet,) = history_rows(entries, threshold=0.10)
        (loud,) = history_rows(entries, threshold=0.01)
        assert quiet.verdict == "stable" and loud.verdict == "drift"

    def test_perf_rows_are_oriented(self):
        def series(metric, values):
            return [LedgerEntry.perf("b", {metric: v}) for v in values]

        rows = {
            r.metric: r.verdict
            for r in history_rows(
                series("wall_s", self.QUIET + [150.0])
                + series("chips_years_per_s", self.QUIET + [150.0])
                + series("flips_pct", self.QUIET + [150.0])
            )
        }
        assert rows == {
            "b:chips_years_per_s": "improve",
            "b:flips_pct": "shift",
            "b:wall_s": "regress",
        }

    def test_perf_rows_keep_the_gate_warmup(self):
        """Perf rows judge with the fixed constants only: no window can
        end perf warm-up early or retune the verdict."""
        entries = [
            LedgerEntry.perf("b", {"wall_s": v})
            for v in [10.0, 10.0, 10.0, 10.0, 20.0]
        ]
        (row,) = history_rows(entries)
        assert row.verdict == "warmup"
        assert row.window == DEFAULT_WINDOW
        with pytest.raises(ValueError, match="run entries only"):
            history_rows(entries, window=3)
        with pytest.raises(ValueError, match="run entries only"):
            history_rows(entries, threshold=0.5)

    def test_mixed_kinds_are_rejected(self, manifest):
        entries = entries_for([1.0], manifest) + [
            LedgerEntry.perf("b", {"wall_s": 1.0})
        ]
        with pytest.raises(ValueError, match="one kind"):
            history_rows(entries)
        with pytest.raises(ValueError, match="one kind"):
            render_history(entries)

    def test_metric_substring_filter(self, manifest):
        entries = entries_for([1.0], manifest) + entries_for(
            [2.0], manifest, experiment="e3", key="uniq"
        )
        rows = history_rows(entries, metrics=["e3"])
        assert [r.metric for r in rows] == ["e3.uniq"]

    def test_last_truncates_series(self, manifest):
        entries = entries_for([1.0, 2.0, 3.0, 4.0], manifest)
        (row,) = history_rows(entries, last=2)
        assert row.values == (3.0, 4.0)
        assert row.n_runs == 2

    def test_parameter_validation(self, manifest):
        entries = entries_for([1.0], manifest)
        with pytest.raises(ValueError, match="window"):
            history_rows(entries, window=0)
        with pytest.raises(ValueError, match="threshold"):
            history_rows(entries, threshold=0.0)
        with pytest.raises(ValueError, match="last"):
            history_rows(entries, last=0)


class TestRenderHistory:
    QUIET = TestHistoryRows.QUIET

    def test_empty_ledger(self):
        assert render_history([]) == "(empty ledger)"

    def test_no_matching_metrics(self, manifest):
        text = render_history(entries_for([1.0], manifest), metrics=["nope"])
        assert "no matching metrics" in text

    def test_renders_sparkline_latest_and_drift(self, manifest):
        text = render_history(
            entries_for(self.QUIET + [80.0], manifest), window=6
        )
        assert "e2.flips" in text
        assert any(block in text for block in SPARK_BLOCKS)
        assert "latest" in text and "vs median[6]" in text
        assert "<< drift" in text
        assert "1 metric(s) moved beyond their median+MAD noise band" in text

    def test_warmup_and_quiet_footer(self, manifest):
        text = render_history(entries_for([1.0, 2.0], manifest))
        assert "(warmup)" in text
        assert "<< drift" not in text
        assert "no movement beyond the median+MAD noise band" in text

    def test_header_counts_runs_and_experiments(self, manifest):
        entries = entries_for([1.0, 2.0], manifest) + entries_for(
            [3.0], manifest, experiment="e3", key="uniq"
        )
        header = render_history(entries).splitlines()[0]
        assert "3 entries" in header
        assert "experiments: e2, e3" in header

    def test_perf_header_names_benches(self):
        entries = [LedgerEntry.perf("bench_x", {"wall_s": 1.0})]
        assert "benches: bench_x" in render_history(entries)


class TestSparklineDegenerateRanges:
    """The monitor's RSS row feeds arbitrary series in; every degenerate
    range must render (never divide by zero or index out of band)."""

    def test_negative_flat_series_is_mid_scale(self):
        assert sparkline([-3.0, -3.0]) == SPARK_BLOCKS[3] * 2

    def test_tiny_range_stays_in_band(self):
        s = sparkline([1.0, 1.0 + 1e-15, 1.0])
        assert len(s) == 3
        assert set(s) <= set(SPARK_BLOCKS)

    def test_extreme_range_endpoints(self):
        s = sparkline([1e-9, 1e9])
        assert s[0] == SPARK_BLOCKS[0]
        assert s[-1] == SPARK_BLOCKS[-1]

    def test_monotone_ramp_is_nondecreasing(self):
        s = sparkline([0.0, 1.0, 2.0, 3.0, 4.0])
        ranks = [SPARK_BLOCKS.index(ch) for ch in s]
        assert ranks == sorted(ranks)

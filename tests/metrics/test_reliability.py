"""Reliability metric: flip fractions over populations and sweeps."""

import numpy as np
import pytest

from repro.metrics import flip_curve, flip_fraction, reliability
from repro.metrics.reliability import ReliabilityReport


class TestFlipFraction:
    def test_no_flips(self):
        assert flip_fraction([0, 1, 1], [0, 1, 1]) == 0.0

    def test_some_flips(self):
        assert flip_fraction([0, 1, 1, 0], [1, 1, 1, 0]) == 0.25


class TestReliability:
    def test_aggregates(self):
        goldens = [np.array([0, 1, 1, 0]), np.array([1, 1, 0, 0])]
        observed = [np.array([0, 1, 0, 0]), np.array([1, 1, 0, 0])]
        report = reliability(goldens, observed)
        assert report.per_chip.tolist() == [0.25, 0.0]
        assert report.mean_flip_fraction == pytest.approx(0.125)
        assert report.worst_flip_fraction == 0.25
        assert report.percent() == pytest.approx(12.5)
        assert report.mean_reliability == pytest.approx(0.875)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="pair up"):
            reliability([np.zeros(4)], [])

    def test_empty_population(self):
        with pytest.raises(ValueError):
            reliability([], [])

    def test_single_chip_zero_std(self):
        report = reliability([np.array([0, 1])], [np.array([1, 1])])
        assert report.std_flip_fraction == 0.0


class TestReliabilityEdgeCases:
    def test_single_chip_population(self):
        """One chip: mean == worst == its flip fraction, std pinned to 0."""
        report = reliability([np.array([0, 1, 1, 0])], [np.array([1, 1, 1, 0])])
        assert report.per_chip.shape == (1,)
        assert report.mean_flip_fraction == 0.25
        assert report.worst_flip_fraction == 0.25
        assert report.std_flip_fraction == 0.0

    def test_single_chip_batched_fast_path(self):
        golden = np.array([[0, 1, 1, 0]])
        observed = np.array([[1, 1, 1, 0]])
        report = reliability(golden, observed)
        assert report.per_chip.tolist() == [0.25]
        assert report.std_flip_fraction == 0.0

    def test_zero_flip_population(self):
        goldens = [np.array([0, 1, 1]), np.array([1, 0, 1])]
        report = reliability(goldens, [g.copy() for g in goldens])
        assert report.per_chip.tolist() == [0.0, 0.0]
        assert report.mean_flip_fraction == 0.0
        assert report.worst_flip_fraction == 0.0
        assert report.std_flip_fraction == 0.0
        assert report.mean_reliability == 1.0

    def test_worst_flip_fraction_tie(self):
        """Several chips sharing the max: worst is that value, reported
        once, and every tied chip stays visible in per_chip."""
        goldens = [np.zeros(4, int)] * 3
        observeds = [
            np.array([1, 1, 0, 0]),  # 0.5
            np.array([0, 0, 1, 1]),  # 0.5 (tied worst)
            np.array([1, 0, 0, 0]),  # 0.25
        ]
        report = reliability(goldens, observeds)
        assert report.worst_flip_fraction == 0.5
        assert np.count_nonzero(report.per_chip == 0.5) == 2

    def test_all_chips_tied_at_total_flip(self):
        goldens = np.zeros((3, 4), int)
        observeds = np.ones((3, 4), int)
        report = reliability(goldens, observeds)
        assert report.worst_flip_fraction == 1.0
        assert report.mean_flip_fraction == 1.0
        assert report.std_flip_fraction == 0.0

    def test_batched_empty_bit_axis_rejected(self):
        with pytest.raises(ValueError, match="Hamming"):
            reliability(np.zeros((2, 0)), np.zeros((2, 0)))


class TestFlipCurve:
    def test_one_report_per_point(self):
        goldens = [np.array([0, 1, 1, 0])]
        sweep = [
            [np.array([0, 1, 1, 0])],
            [np.array([1, 1, 1, 0])],
            [np.array([1, 0, 1, 0])],
        ]
        reports = flip_curve(goldens, sweep)
        assert [r.mean_flip_fraction for r in reports] == [0.0, 0.25, 0.5]


class TestFromFlipCounts:
    @pytest.mark.parametrize("n_chips", [1, 2, 7])
    def test_equals_reliability_field_by_field(self, n_chips):
        rng = np.random.default_rng(n_chips)
        goldens = rng.integers(0, 2, (n_chips, 24), dtype=np.uint8)
        aged = goldens ^ (rng.random((n_chips, 24)) < 0.3).astype(np.uint8)
        want = reliability(goldens, aged)
        got = ReliabilityReport.from_flip_counts(
            np.count_nonzero(goldens != aged, axis=1), goldens.shape[1]
        )
        assert got.mean_flip_fraction == want.mean_flip_fraction
        assert got.std_flip_fraction == want.std_flip_fraction
        assert got.worst_flip_fraction == want.worst_flip_fraction
        assert got.per_chip.tobytes() == want.per_chip.tobytes()
        if n_chips == 1:
            assert got.std_flip_fraction == 0.0

    def test_rejects_zero_bits_and_zero_chips(self):
        with pytest.raises(ValueError, match="Hamming"):
            ReliabilityReport.from_flip_counts(np.array([0]), 0)
        with pytest.raises(ValueError, match="at least one chip"):
            ReliabilityReport.from_flip_counts(np.array([], dtype=np.int64), 8)

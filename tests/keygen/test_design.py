"""Key-generator design-space search."""

import dataclasses

import numpy as np
import pytest

from repro.core import aro_design, conventional_design
from repro.core.selection import select_stable_pairs
from repro.ecc import standard_codes
from repro.keygen import best_design, search_design_space
from repro.keygen.design import _ros_for_bits


@pytest.fixture(scope="module")
def palette():
    """Small palette keeps the search fast in unit tests."""
    return standard_codes(max_m=8, max_t=20)


class TestSearch:
    def test_all_points_feasible(self, palette):
        points = search_design_space(
            0.08, aro_design(), bch_palette=palette, failure_target=1e-6
        )
        assert points
        for pt in points[:20]:
            assert pt.key_failure <= 1e-6
            assert pt.codec.message_bits >= 128

    def test_sorted_by_area(self, palette):
        points = search_design_space(0.08, aro_design(), bch_palette=palette)
        areas = [pt.total_area for pt in points]
        assert areas == sorted(areas)

    def test_higher_error_costs_more(self, palette):
        cheap = best_design(0.05, aro_design(), bch_palette=palette)
        pricey = best_design(0.20, aro_design(), bch_palette=palette)
        assert pricey.total_area > cheap.total_area
        assert pricey.raw_bits > cheap.raw_bits

    def test_zero_error_needs_no_repetition(self, palette):
        pt = best_design(0.0, aro_design(), bch_palette=palette)
        assert pt.codec.code.inner.r == 1

    def test_infeasible_raises(self, palette):
        with pytest.raises(ValueError, match="no feasible"):
            best_design(
                0.45,
                conventional_design(),
                bch_palette=palette,
                repetitions=(1, 3),
            )

    def test_parameter_validation(self, palette):
        with pytest.raises(ValueError):
            search_design_space(0.6, aro_design(), bch_palette=palette)
        with pytest.raises(ValueError):
            search_design_space(
                0.1, aro_design(), bch_palette=palette, failure_target=0.0
            )


class TestFailureTarget:
    @pytest.mark.parametrize("target", [float("nan"), float("inf"), 0.0, -1.0, 1.5])
    def test_outside_unit_interval_rejected(self, target):
        palette = standard_codes()[:20]
        with pytest.raises(ValueError, match="failure_target"):
            search_design_space(
                0.08, aro_design(), bch_palette=palette, failure_target=target
            )
        with pytest.raises(ValueError, match="failure_target"):
            best_design(0.08, aro_design(), bch_palette=palette, failure_target=target)

    def test_one_admits_every_cell(self):
        """``failure_target=1`` is the loosest valid target: every cell
        within ``max_raw_bits`` is feasible."""
        palette = standard_codes()[:20]
        points = search_design_space(
            0.08, aro_design(), bch_palette=palette, failure_target=1.0
        )
        assert len(points) == len(palette) * 14
        assert len(points) > len(
            search_design_space(0.08, aro_design(), bch_palette=palette)
        )


class TestUnreachableRawBits:
    """A pairing whose bit yield never reaches a cell's raw bits (a
    :class:`StaticPairing` yields its table's width at any array size)
    makes that cell infeasible instead of costing it at the bisection
    bound."""

    @pytest.fixture(scope="class")
    def static_design(self):
        freqs = np.random.default_rng(3).normal(1.0e9, 1.0e7, 64)
        return dataclasses.replace(
            conventional_design(64, 5), pairing=select_stable_pairs(freqs, 4)
        )

    def test_ros_for_bits_raises(self, static_design):
        assert _ros_for_bits(static_design, 16) == 2
        with pytest.raises(ValueError, match="cannot source 17 bits"):
            _ros_for_bits(static_design, 17)

    def test_best_design_finds_nothing(self, static_design):
        with pytest.raises(ValueError, match="no feasible"):
            best_design(0.05, static_design)
        assert search_design_space(0.05, static_design) == []


class TestDesignPoint:
    def test_ro_count_supports_raw_bits(self, palette):
        pt = best_design(0.08, aro_design(), bch_palette=palette)
        design = aro_design().with_n_ros(pt.n_ros)
        assert design.n_bits >= pt.raw_bits
        # and it is tight: one RO fewer would not suffice
        smaller = aro_design().with_n_ros(pt.n_ros - 1)
        assert smaller.n_bits < pt.raw_bits

    def test_describe_mentions_codec(self, palette):
        pt = best_design(0.08, aro_design(), bch_palette=palette)
        text = pt.describe()
        assert "BCH" in text and "raw_bits" in text

    def test_total_area_sums(self, palette):
        pt = best_design(0.08, aro_design(), bch_palette=palette)
        assert pt.total_area == pytest.approx(pt.puf_area + pt.ecc_area)


class TestPaperComparison:
    def test_aro_key_generator_much_smaller(self, palette):
        """The headline direction: at the measured 10-year error rates the
        conventional key generator costs several times the ARO one."""
        conv = best_design(
            0.32,
            conventional_design(),
            bch_palette=palette,
            repetitions=tuple(range(1, 64, 2)),
        )
        aro = best_design(0.077, aro_design(), bch_palette=palette)
        assert conv.total_area > 3 * aro.total_area
        assert conv.raw_bits > 5 * aro.raw_bits

"""Chip and population data model: validation, views, aging composition."""

import numpy as np
import pytest

from repro.variation import NMOS, PMOS, Chip, PopulationView, grid_positions


def make_chip(n_ros=4, n_stages=5, chip_id=0):
    vth = np.full((n_ros, n_stages, 2), 0.25)
    return Chip(
        vth=vth,
        positions=grid_positions(n_ros),
        tc_scale=np.ones_like(vth),
        chip_id=chip_id,
    )


class TestValidation:
    def test_wrong_vth_rank_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Chip(
                vth=np.full((4, 5), 0.25),
                positions=grid_positions(4),
                tc_scale=np.ones((4, 5)),
            )

    def test_nonpositive_threshold_rejected(self):
        vth = np.full((2, 3, 2), 0.25)
        vth[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            Chip(vth=vth, positions=grid_positions(2), tc_scale=np.ones_like(vth))

    def test_nan_threshold_rejected(self):
        vth = np.full((2, 3, 2), 0.25)
        vth[1, 2, 1] = np.nan
        with pytest.raises(ValueError, match="positive"):
            Chip(vth=vth, positions=grid_positions(2), tc_scale=np.ones_like(vth))

    def test_position_shape_checked(self):
        vth = np.full((4, 5, 2), 0.25)
        with pytest.raises(ValueError, match="positions"):
            Chip(vth=vth, positions=np.zeros((3, 2)), tc_scale=np.ones_like(vth))

    def test_tc_scale_shape_checked(self):
        vth = np.full((4, 5, 2), 0.25)
        with pytest.raises(ValueError, match="tc_scale"):
            Chip(vth=vth, positions=grid_positions(4), tc_scale=np.ones((4, 5)))


class TestViews:
    def test_geometry_properties(self):
        chip = make_chip(n_ros=6, n_stages=7)
        assert chip.n_ros == 6
        assert chip.n_stages == 7

    def test_polarity_views(self):
        chip = make_chip()
        assert chip.vth_n.shape == (4, 5)
        assert np.array_equal(chip.vth_n, chip.vth[:, :, NMOS])
        assert np.array_equal(chip.vth_p, chip.vth[:, :, PMOS])

    def test_polarity_constants_distinct(self):
        assert NMOS != PMOS
        assert {NMOS, PMOS} == {0, 1}


class TestWithDelta:
    def test_returns_new_chip(self):
        chip = make_chip()
        delta = np.full(chip.vth.shape, 0.01)
        aged = chip.with_delta(delta)
        assert aged is not chip
        assert np.allclose(aged.vth, 0.26)
        assert np.allclose(chip.vth, 0.25)  # original untouched

    def test_preserves_identity_fields(self):
        chip = make_chip(chip_id=7)
        aged = chip.with_delta(np.zeros(chip.vth.shape))
        assert aged.chip_id == 7
        assert np.array_equal(aged.positions, chip.positions)

    def test_shape_mismatch_rejected(self):
        chip = make_chip()
        with pytest.raises(ValueError, match="shape"):
            chip.with_delta(np.zeros((1, 1, 2)))


def make_view(n_chips=3, n_ros=4, n_stages=5, chip_ids=None):
    vth = 0.25 + 0.01 * np.arange(n_chips * n_ros * n_stages * 2).reshape(
        n_chips, n_ros, n_stages, 2
    )
    return PopulationView(
        vth=vth,
        tc_scale=np.ones_like(vth),
        positions=grid_positions(n_ros),
        chip_ids=chip_ids,
    )


class TestPopulationView:
    def test_geometry_and_default_ids(self):
        view = make_view(n_chips=3, n_ros=4, n_stages=5)
        assert (view.n_chips, view.n_ros, view.n_stages) == (3, 4, 5)
        assert view.chip_ids == [0, 1, 2]

    def test_chip_views_its_row(self):
        view = make_view(chip_ids=[7, 8, 9])
        chip = view.chip(1)
        assert np.shares_memory(chip.vth, view.vth)
        assert np.array_equal(chip.vth, view.vth[1])
        assert np.array_equal(chip.tc_scale, view.tc_scale[1])
        assert chip.chip_id == 8

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="n_chips"):
            PopulationView(
                vth=np.zeros((4, 3, 2)),
                tc_scale=np.zeros((4, 3, 2)),
                positions=np.zeros((4, 2)),
            )

    def test_rejects_mismatched_tc_scale(self):
        with pytest.raises(ValueError, match="tc_scale"):
            PopulationView(
                vth=np.zeros((2, 4, 3, 2)),
                tc_scale=np.zeros((2, 4, 3, 1)),
                positions=np.zeros((4, 2)),
            )

    def test_rejects_mismatched_positions(self):
        with pytest.raises(ValueError, match="positions"):
            PopulationView(
                vth=np.zeros((2, 4, 3, 2)),
                tc_scale=np.zeros((2, 4, 3, 2)),
                positions=np.zeros((3, 2)),
            )

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError, match="empty"):
            PopulationView(
                vth=np.zeros((0, 4, 3, 2)),
                tc_scale=np.zeros((0, 4, 3, 2)),
                positions=np.zeros((4, 2)),
            )

    def test_chip_ids_must_name_every_row(self):
        with pytest.raises(ValueError, match="chip_ids"):
            make_view(n_chips=3, chip_ids=[0, 1])


class TestGridPositions:
    def test_square_grid(self):
        pos = grid_positions(9)
        assert pos.shape == (9, 2)
        assert pos[:3, 1].tolist() == [0.0, 0.0, 0.0]  # first row
        assert pos[3, 1] == 1.0

    def test_non_square_count(self):
        pos = grid_positions(10)
        assert pos.shape == (10, 2)
        assert len({tuple(p) for p in pos}) == 10  # all distinct

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            grid_positions(0)

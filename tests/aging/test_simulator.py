"""Aging simulator: trajectories, consistency, design contrast."""

import numpy as np
import pytest

from repro._rng import spawn
from repro.aging import AgingSimulator, IdlePolicy, MissionProfile
from repro.circuit import aro_cell, conventional_cell
from repro.transistor import ptm90
from repro.variation import PMOS, VariationModel


@pytest.fixture(scope="module")
def chip():
    return VariationModel(tech=ptm90(), n_ros=16, n_stages=5).sample_chip(rng=0)


@pytest.fixture(scope="module")
def conv_aging(chip):
    sim = AgingSimulator(ptm90(), conventional_cell(5), MissionProfile())
    return sim.for_chip(chip, rng=1)


@pytest.fixture(scope="module")
def aro_aging(chip):
    sim = AgingSimulator(ptm90(), aro_cell(5), MissionProfile())
    return sim.for_chip(chip, rng=1)


class TestTrajectory:
    def test_zero_years_is_identity(self, conv_aging, chip):
        assert conv_aging.aged(0.0) is chip

    def test_delta_shape(self, conv_aging, chip):
        assert conv_aging.delta(10.0).shape == chip.vth.shape

    def test_delta_nonnegative(self, conv_aging):
        assert np.all(conv_aging.delta(10.0) >= 0)

    def test_monotone_in_time(self, conv_aging):
        d1 = conv_aging.delta(1.0)
        d5 = conv_aging.delta(5.0)
        d10 = conv_aging.delta(10.0)
        assert np.all(d5 >= d1)
        assert np.all(d10 >= d5)

    def test_negative_time_rejected(self, conv_aging):
        with pytest.raises(ValueError):
            conv_aging.delta(-1.0)

    def test_aged_chip_thresholds_increase(self, conv_aging, chip):
        aged = conv_aging.aged(10.0)
        assert np.all(aged.vth >= chip.vth)
        assert aged.chip_id == chip.chip_id

    def test_prefactors_frozen_across_calls(self, conv_aging):
        assert np.array_equal(conv_aging.delta(3.0), conv_aging.delta(3.0))


class TestDesignContrast:
    def test_conventional_ages_much_more(self, conv_aging, aro_aging):
        conv = conv_aging.delta(10.0)[:, :, PMOS].mean()
        aro = aro_aging.delta(10.0)[:, :, PMOS].mean()
        assert conv > 5 * aro

    def test_conventional_stage_pattern(self, conv_aging):
        """Stages 2 and 4 (parked input low) age; 1 and 3 mostly do not."""
        d = conv_aging.delta(10.0)[:, :, PMOS].mean(axis=0)
        assert d[2] > 10 * d[1]
        assert d[4] > 10 * d[3]

    def test_aro_ages_uniformly(self, aro_aging):
        d = aro_aging.delta(10.0)[:, :, PMOS].mean(axis=0)
        assert d.max() < 3 * max(d.min(), 1e-9)

    def test_free_running_suffers_hci(self, chip):
        free = AgingSimulator(
            ptm90(),
            conventional_cell(5),
            MissionProfile(),
            idle_policy=IdlePolicy.FREE_RUNNING,
        ).for_chip(chip, rng=1)
        parked = AgingSimulator(
            ptm90(), conventional_cell(5), MissionProfile()
        ).for_chip(chip, rng=1)
        # NMOS aging (HCI-dominated) is far worse free-running
        from repro.variation import NMOS

        assert (
            free.delta(10.0)[:, :, NMOS].mean()
            > 10 * parked.delta(10.0)[:, :, NMOS].mean()
        )


class TestFrequencyDegradation:
    def test_mean_degradation_positive_and_moderate(self, conv_aging):
        loss = conv_aging.mean_frequency_degradation(10.0)
        assert 0.005 < loss < 0.10

    def test_aro_degrades_less(self, conv_aging, aro_aging):
        assert aro_aging.mean_frequency_degradation(
            10.0
        ) < 0.3 * conv_aging.mean_frequency_degradation(10.0)


class TestSimulatorApi:
    def test_stage_mismatch_rejected(self, chip):
        sim = AgingSimulator(ptm90(), conventional_cell(7), MissionProfile())
        with pytest.raises(ValueError, match="stages"):
            sim.for_chip(chip)

    def test_population_trajectories_independent(self):
        model = VariationModel(tech=ptm90(), n_ros=8, n_stages=5)
        pop = model.sample_population(3, rng=0)
        sim = AgingSimulator(ptm90(), conventional_cell(5), MissionProfile())
        aging = sim.population_aging(pop, rng=2)
        assert aging.n_chips == 3
        assert not np.array_equal(aging.nbti_a[0], aging.nbti_a[1])
        # row i draws what the per-chip path draws from the i-th child
        for i, child in enumerate(spawn(2, 3)):
            ref = sim.for_chip(pop.chip(i), child)
            assert ref.nbti_a.tobytes() == aging.nbti_a[i].tobytes()
            assert ref.hci_b.tobytes() == aging.hci_b[i].tobytes()

    def test_population_stage_mismatch_rejected(self):
        pop = VariationModel(tech=ptm90(), n_ros=8, n_stages=5).sample_population(2)
        sim = AgingSimulator(ptm90(), conventional_cell(7), MissionProfile())
        with pytest.raises(ValueError, match="stages"):
            sim.population_aging(pop, rng=0)

    def test_seeded_reproducibility(self, chip):
        sim = AgingSimulator(ptm90(), conventional_cell(5), MissionProfile())
        a = sim.for_chip(chip, rng=5).delta(10.0)
        b = sim.for_chip(chip, rng=5).delta(10.0)
        assert np.array_equal(a, b)

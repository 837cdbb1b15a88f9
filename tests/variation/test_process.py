"""Monte-Carlo sampler: geometry, statistics, seeding discipline."""

from dataclasses import replace

import numpy as np
import pytest

from repro._rng import spawn
from repro.transistor import ptm90
from repro.variation import LayoutStyle, VariationModel


@pytest.fixture(scope="module")
def model():
    return VariationModel(tech=ptm90(), n_ros=64, n_stages=5)


class TestGeometryValidation:
    def test_needs_two_ros(self):
        with pytest.raises(ValueError):
            VariationModel(tech=ptm90(), n_ros=1, n_stages=5)

    def test_even_stage_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            VariationModel(tech=ptm90(), n_ros=8, n_stages=4)

    def test_tiny_ring_rejected(self):
        with pytest.raises(ValueError):
            VariationModel(tech=ptm90(), n_ros=8, n_stages=1)


class TestSampling:
    def test_chip_shape(self, model):
        chip = model.sample_chip(rng=0)
        assert chip.vth.shape == (64, 5, 2)
        assert chip.positions.shape == (64, 2)
        assert chip.tc_scale.shape == (64, 5, 2)

    def test_seeded_reproducibility(self, model):
        a = model.sample_chip(rng=7)
        b = model.sample_chip(rng=7)
        assert np.array_equal(a.vth, b.vth)

    def test_thresholds_near_nominal(self, model):
        chip = model.sample_chip(rng=0)
        tech = ptm90()
        assert abs(chip.vth.mean() - tech.vth_n) < 0.03
        assert np.all(chip.vth > 0.05)

    def test_device_mismatch_magnitude(self, model):
        """Per-device spread should be dominated by sigma_intra_die."""
        chip = model.sample_chip(rng=0)
        var = ptm90().variation
        # remove per-RO common modes, keep white mismatch
        white = chip.vth - chip.vth.mean(axis=(1, 2), keepdims=True)
        expected = var.sigma_intra_die * np.sqrt(1 - var.correlated_fraction)
        assert white.std() == pytest.approx(expected, rel=0.15)

    def test_tc_scale_centred_on_one(self, model):
        chip = model.sample_chip(rng=0)
        assert chip.tc_scale.mean() == pytest.approx(1.0, abs=0.01)


class TestLayoutStyles:
    def test_symmetric_layout_reduces_cross_chip_correlation(self):
        """The systematic component makes conventional chips look alike;
        the ARO's symmetric layout must remove that common structure."""

        def cross_chip_corr(layout):
            model = VariationModel(
                tech=ptm90(), n_ros=64, n_stages=5, layout=layout
            )
            chips = [model.sample_chip(rng=i) for i in range(40)]
            # per-RO mean threshold, de-meaned per chip: the across-chip
            # mean profile reveals the shared systematic component
            profiles = np.stack(
                [c.vth.mean(axis=(1, 2)) - c.vth.mean() for c in chips]
            )
            mean_profile = profiles.mean(axis=0)
            return float(np.std(mean_profile))

        conv = cross_chip_corr(LayoutStyle.CONVENTIONAL)
        aro = cross_chip_corr(LayoutStyle.SYMMETRIC)
        assert aro < 0.35 * conv


class TestPopulation:
    def test_population_size_and_ids(self, model):
        pop = model.sample_population(5, rng=1)
        assert pop.vth.shape == pop.tc_scale.shape == (5, 64, 5, 2)
        assert pop.chip_ids == list(range(5))
        # row i is the chip sample_chip draws from the i-th spawned child
        for i, child in enumerate(spawn(1, 5)):
            chip = model.sample_chip(child, chip_id=i)
            assert chip.vth.tobytes() == pop.vth[i].tobytes()
            assert chip.tc_scale.tobytes() == pop.tc_scale[i].tobytes()
            assert chip.positions.tobytes() == pop.positions.tobytes()

    def test_chips_are_independent(self, model):
        pop = model.sample_population(3, rng=1)
        assert not np.array_equal(pop.vth[0], pop.vth[1])

    def test_prefix_stability(self, model):
        """Growing the population must not change the earlier chips."""
        small = model.sample_population(2, rng=9)
        large = model.sample_population(4, rng=9)
        assert np.array_equal(small.vth, large.vth[:2])
        assert np.array_equal(small.tc_scale, large.tc_scale[:2])

    def test_nan_threshold_rejected(self):
        """A NaN threshold fails the positivity check: ``NaN <= 0`` is
        false, so only an all-positive test catches it."""
        tech = replace(ptm90(), vth_p=float("nan"))
        with pytest.raises(ValueError, match="positive"):
            VariationModel(tech=tech, n_ros=4, n_stages=3).sample_population(2, rng=0)

    def test_rejects_nonpositive_count(self, model):
        with pytest.raises(ValueError):
            model.sample_population(0)

"""Batch/loop equivalence for the population evaluation engine.

The contract of :mod:`repro.core.population`: under the same seed the
batched path produces the *same silicon* as the per-chip path — aging
deltas and response bits are bit-identical, frequencies agree to
floating-point rounding (the batched kernel folds scalar factors into the
stage-weight reduction, which regroups a few multiplications).
"""

import numpy as np
import pytest

from repro import make_batch_study, make_study
from repro.aging import IdlePolicy
from repro.aging.simulator import PopulationAging
from repro.core import aro_design, compare_pairs, conventional_design
from repro.core.population import BatchStudy, PopulationView, RamColumns
from repro.environment import OperatingConditions, celsius
from repro.metrics import reliability

N_CHIPS = 6
N_ROS = 32
SEED = 99

YEARS = [0.0, 5.0, 10.0]
FACTORIES = {"ro-puf": conventional_design, "aro-puf": aro_design}


@pytest.fixture(scope="module", params=sorted(FACTORIES))
def paths(request):
    """The same (design, seed) fabricated through both evaluation paths."""
    design = FACTORIES[request.param](n_ros=N_ROS)
    study = make_study(design, N_CHIPS, rng=SEED)
    batch = make_batch_study(design, N_CHIPS, rng=SEED)
    return study, batch


class TestSameSilicon:
    def test_thresholds_bit_identical(self, paths):
        study, batch = paths
        for i, inst in enumerate(study.instances):
            assert np.array_equal(batch.view.vth[i], inst.chip.vth)
            assert np.array_equal(batch.view.tc_scale[i], inst.chip.tc_scale)
            assert batch.view.chip_ids[i] == inst.chip.chip_id

    def test_prefactors_bit_identical(self, paths):
        study, batch = paths
        for i, aging in enumerate(study.agings):
            assert np.array_equal(batch.aging.nbti_a[i], aging.nbti_a)
            assert np.array_equal(batch.aging.hci_b[i], aging.hci_b)


class TestAgingEquivalence:
    @pytest.mark.parametrize("t", [t for t in YEARS if t > 0])
    def test_deltas_bit_identical(self, paths, t):
        study, batch = paths
        delta = batch.aging.delta(t)
        for i, aging in enumerate(study.agings):
            assert np.array_equal(delta[i], aging.delta(t))

    def test_delta_grid_stacks_the_memo(self, paths):
        _, batch = paths
        grid = batch.aging.delta_grid([1.0, 3.0])
        assert grid.shape == (2, N_CHIPS, N_ROS, 5, 2)
        assert np.array_equal(grid[0], batch.aging.delta(1.0))
        assert np.array_equal(grid[1], batch.aging.delta(3.0))

    @pytest.mark.parametrize("t", [t for t in YEARS if t > 0])
    def test_aged_instances_bit_identical(self, paths, t):
        study, batch = paths
        for fast, slow in zip(batch.aged_instances(t), study.aged_instances(t)):
            assert np.array_equal(fast.chip.vth, slow.chip.vth)

    def test_idle_policy_override_matches(self):
        design = FACTORIES["ro-puf"](n_ros=N_ROS)
        study = make_study(
            design, N_CHIPS, idle_policy=IdlePolicy.FREE_RUNNING, rng=SEED
        )
        batch = make_batch_study(
            design, N_CHIPS, idle_policy=IdlePolicy.FREE_RUNNING, rng=SEED
        )
        delta = batch.aging.delta(10.0)
        for i, aging in enumerate(study.agings):
            assert np.array_equal(delta[i], aging.delta(10.0))


class TestFrequencyEquivalence:
    @pytest.mark.parametrize("t", YEARS)
    def test_frequencies_match_per_chip(self, paths, t):
        study, batch = paths
        freqs = batch.frequencies(t_years=t)
        assert freqs.shape == (N_CHIPS, N_ROS)
        insts = study.instances if t == 0 else study.aged_instances(t)
        for i, inst in enumerate(insts):
            np.testing.assert_allclose(freqs[i], inst.frequencies(), rtol=1e-11)

    @pytest.mark.parametrize(
        "cond",
        [
            OperatingConditions(temperature_k=celsius(85.0)),
            OperatingConditions(temperature_k=celsius(-20.0)),
            OperatingConditions(vdd=1.1),
            OperatingConditions(temperature_k=celsius(60.0), vdd=0.95),
        ],
    )
    def test_corner_frequencies_match_per_chip(self, paths, cond):
        study, batch = paths
        freqs = batch.frequencies(conditions=cond)
        for i, inst in enumerate(study.instances):
            np.testing.assert_allclose(
                freqs[i], inst.frequencies(cond), rtol=1e-11
            )

    def test_corner_plus_aging_matches_per_chip(self, paths):
        study, batch = paths
        cond = OperatingConditions(temperature_k=celsius(85.0))
        freqs = batch.frequencies(t_years=10.0, conditions=cond)
        for i, inst in enumerate(study.aged_instances(10.0)):
            np.testing.assert_allclose(
                freqs[i], inst.frequencies(cond), rtol=1e-11
            )


class TestResponseEquivalence:
    @pytest.mark.parametrize("t", YEARS)
    def test_responses_bit_identical(self, paths, t):
        study, batch = paths
        got = batch.responses(t_years=t)
        want = study.responses(t_years=t)
        assert got.shape == (N_CHIPS, batch.n_bits)
        assert got.dtype == np.uint8
        for i in range(N_CHIPS):
            assert np.array_equal(got[i], want[i])

    def test_corner_responses_bit_identical(self, paths):
        study, batch = paths
        cond = OperatingConditions(vdd=1.1)
        got = batch.responses(conditions=cond)
        for i, inst in enumerate(study.instances):
            assert np.array_equal(got[i], inst.evaluate(conditions=cond))


class TestFromStudy:
    def test_shares_the_per_chip_silicon(self, paths):
        study, _ = paths
        batch = BatchStudy.from_study(study)
        assert np.array_equal(
            batch.responses(t_years=10.0), np.stack(study.responses(t_years=10.0))
        )
        for i, aging in enumerate(study.agings):
            assert np.array_equal(batch.aging.delta(5.0)[i], aging.delta(5.0))

    def test_chip_aging_view_is_a_thin_slice(self, paths):
        study, batch = paths
        view = batch.aging.chip_aging(2, batch.view.chip(2))
        assert np.shares_memory(view.nbti_a, batch.aging.nbti_a)
        assert np.array_equal(view.delta(5.0), study.agings[2].delta(5.0))


class TestMemoisation:
    def test_frequency_memo_returns_same_readonly_array(self, paths):
        _, batch = paths
        f1 = batch.frequencies(t_years=5.0)
        f2 = batch.frequencies(t_years=5.0)
        assert f1 is f2
        assert not f1.flags.writeable
        with pytest.raises(ValueError):
            f1[0, 0] = 0.0

    def test_delta_memo_returns_same_readonly_array(self, paths):
        _, batch = paths
        d1 = batch.aging.delta(5.0)
        d2 = batch.aging.delta(5.0)
        assert d1 is d2
        assert not d1.flags.writeable

    def test_memo_evicts_oldest_corner(self, paths):
        _, batch = paths
        first = batch.frequencies(t_years=0.125)
        for k in range(BatchStudy.MEMO_SIZE):
            batch.frequencies(t_years=100.0 + k)
        assert (0.125, OperatingConditions.nominal()) not in batch._freq_memo
        refreshed = batch.frequencies(t_years=0.125)
        assert refreshed is not first
        assert np.array_equal(refreshed, first)


class TestPopulationView:
    def test_from_chips_round_trips(self, paths):
        study, _ = paths
        view = PopulationView.from_chips([inst.chip for inst in study.instances])
        chip = view.chip(3)
        assert np.shares_memory(chip.vth, view.vth)
        assert np.array_equal(chip.vth, study.instances[3].chip.vth)
        assert len(view.chips()) == N_CHIPS

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

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError, match="empty"):
            PopulationView.from_chips([])


class TestBatchedReadout:
    def test_compare_pairs_chip_axis_matches_row_loop(self, paths):
        study, batch = paths
        design = batch.design
        pairs = design.pairing.pairs(design.n_ros)
        freqs = batch.frequencies()
        got = compare_pairs(freqs, pairs, design.tech, design.readout)
        for i in range(N_CHIPS):
            row = compare_pairs(freqs[i], pairs, design.tech, design.readout)
            assert np.array_equal(got[i], row)

    def test_reliability_fast_path_matches_loop(self, paths):
        _, batch = paths
        goldens = batch.responses()
        aged = batch.responses(t_years=10.0)
        fast = reliability(goldens, aged)
        slow = reliability(list(goldens), list(aged))
        np.testing.assert_allclose(fast.per_chip, slow.per_chip)
        assert fast.mean_flip_fraction == slow.mean_flip_fraction


class TestValidation:
    def test_batch_study_rejects_foreign_aging(self, paths):
        study, batch = paths
        wrong = PopulationAging.from_agings(study.agings[:3])
        with pytest.raises(ValueError, match="chips"):
            RamColumns(batch.view, wrong)

    def test_negative_years_rejected(self, paths):
        _, batch = paths
        with pytest.raises(ValueError, match="non-negative"):
            batch.aging.delta(-1.0)

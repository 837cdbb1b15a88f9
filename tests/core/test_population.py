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
from repro.core import aro_design, compare_pairs, conventional_design
from repro.core.population import BatchStudy, RamColumns
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

    @pytest.mark.parametrize("t", [t for t in YEARS if t > 0])
    def test_aged_instances_bit_identical(self, paths, t):
        """The aged thresholds the engine reads (view plus population
        delta) are the per-chip aged chips' thresholds."""
        study, batch = paths
        aged = batch.view.vth + batch.aging.delta(t)
        for fast, slow in zip(aged, study.aged_instances(t)):
            assert np.array_equal(fast, slow.chip.vth)

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


class TestCallHistory:
    @pytest.mark.parametrize("t", [0.5, 3.0, 10.0])
    def test_frequencies_ignore_a_memoised_delta(self, paths, t):
        """A prior ``aging.delta(t)`` (as ``aged_instances`` makes) must not
        regroup the subtraction behind ``frequencies(t)``."""
        _, batch = paths
        fresh = make_batch_study(batch.design, N_CHIPS, rng=SEED)
        fresh.aging.delta(t)
        assert fresh.frequencies(t).tobytes() == batch.frequencies(t).tobytes()


class TestFlipCounts:
    def test_one_stream_and_nothing_memoised(self, paths):
        from repro import telemetry

        _, batch = paths
        fresh = make_batch_study(batch.design, N_CHIPS, rng=SEED)
        with telemetry.session() as tr:
            fresh.flip_counts([1.0, 2.0, 4.0])
        c = tr.counters
        assert c["batch.sweep_passes"] == 1
        assert c["batch.corner_memo_misses"] == 4
        assert c["batch.response_passes"] == 4
        assert not fresh._freq_memo

    def test_negative_year_rejected(self, paths):
        _, batch = paths
        with pytest.raises(ValueError, match="non-negative"):
            batch.flip_counts([1.0, -1.0])
        with pytest.raises(ValueError, match="non-negative"):
            batch.mechanism_frequencies(-1.0, "bti")

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_year_rejected(self, paths, t):
        _, batch = paths
        with pytest.raises(ValueError, match="finite"):
            batch.flip_counts([1.0, t])
        with pytest.raises(ValueError, match="finite"):
            batch.frequencies(t)
        with pytest.raises(ValueError, match="finite"):
            batch.responses(t_years=t)
        with pytest.raises(ValueError, match="finite"):
            batch.mechanism_frequencies(t, "hci")


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


class TestLazyAging:
    """The RAM source draws the aging prefactors on the first aged
    corner: a fresh-only study never samples one."""

    @pytest.fixture
    def prefactor_draws(self, monkeypatch):
        from repro.aging.simulator import AgingSimulator

        calls = []
        draw = AgingSimulator.fabricate_block

        def counted(self, rngs, nbti_out, hci_out):
            calls.append(len(rngs))
            return draw(self, rngs, nbti_out, hci_out)

        monkeypatch.setattr(AgingSimulator, "fabricate_block", counted)
        return calls

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_fresh_only_study_samples_no_prefactors(self, prefactor_draws, name):
        batch = make_batch_study(FACTORIES[name](n_ros=N_ROS), N_CHIPS, rng=SEED)
        batch.responses()
        batch.frequencies(conditions=OperatingConditions(temperature_k=celsius(85.0)))
        batch.margin_histogram(np.linspace(-0.1, 0.1, 5))
        assert prefactor_draws == []

    def test_first_aged_corner_samples_once(self, prefactor_draws, paths):
        study, eager = paths
        batch = make_batch_study(study.design, N_CHIPS, rng=SEED)
        aged = batch.responses(t_years=10.0)
        batch.responses(t_years=5.0)
        assert prefactor_draws == [N_CHIPS]
        assert np.array_equal(aged, eager.responses(t_years=10.0))
        assert np.array_equal(batch.aging.nbti_a, eager.aging.nbti_a)
        assert np.array_equal(batch.aging.hci_b, eager.aging.hci_b)

    def test_deferred_aging_is_checked_against_the_view(self, paths):
        _, batch = paths
        other = make_batch_study(batch.design, 3, rng=SEED)
        source = RamColumns(batch.view, lambda: other.aging)
        with pytest.raises(ValueError, match="chips"):
            source.aging


class TestValidation:
    def test_batch_study_rejects_foreign_aging(self, paths):
        _, batch = paths
        wrong = make_batch_study(batch.design, 3, rng=SEED).aging
        with pytest.raises(ValueError, match="chips"):
            RamColumns(batch.view, wrong)

    def test_negative_years_rejected(self, paths):
        _, batch = paths
        with pytest.raises(ValueError, match="non-negative"):
            batch.aging.delta(-1.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_years_rejected_by_the_aging_closed_form(self, paths, t):
        """The per-chip and the population closed form refuse a NaN or an
        infinite age, as the frequency memo key does: NaN would read as
        all-zero bits and infinity as the clipped maximum shift."""
        study, batch = paths
        with pytest.raises(ValueError, match="finite"):
            study.responses(t_years=t)
        with pytest.raises(ValueError, match="finite"):
            study.agings[0].delta(t)
        with pytest.raises(ValueError, match="finite"):
            study.frequencies(t)
        with pytest.raises(ValueError, match="finite"):
            batch.frequencies(t)
        with pytest.raises(ValueError, match="finite"):
            batch.aging.delta(t)
        with pytest.raises(ValueError, match="finite"):
            batch.aging.delta_into(t, np.empty_like(batch.aging.nbti_a))

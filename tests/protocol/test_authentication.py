"""Verifier protocol and the authentication study."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aro_design, conventional_design, make_batch_study, make_study
from repro.environment import noisy_counts
from repro.metrics.hamming import fractional_hd
from repro.protocol import Verifier, authentication_study
from repro.protocol import authentication as authentication_mod


@pytest.fixture(scope="module")
def study():
    return make_study(aro_design(n_ros=32), n_chips=4, rng=9)


@pytest.fixture()
def verifier(study):
    v = Verifier(threshold=0.25, batch_size=4)
    for i, inst in enumerate(study.instances):
        v.enroll(inst, n_challenges=16, rng=100 + i)
    return v


class TestVerifier:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Verifier(threshold=0.6)
        with pytest.raises(ValueError):
            Verifier(batch_size=0)

    def test_enrolled_chips(self, verifier):
        assert verifier.enrolled_chips() == [0, 1, 2, 3]

    def test_genuine_chip_accepted(self, verifier, study):
        result = verifier.authenticate(0, study.instances[0], rng=1)
        assert result.accepted
        assert result.distance < 0.1

    def test_impostor_rejected(self, verifier, study):
        result = verifier.authenticate(0, study.instances[1], rng=1)
        assert not result.accepted
        assert result.distance > 0.3

    def test_unknown_identity(self, verifier, study):
        with pytest.raises(KeyError):
            verifier.authenticate(99, study.instances[0])

    def test_challenges_never_reused(self, verifier, study):
        before = verifier.remaining_challenges(0)
        verifier.authenticate(0, study.instances[0], rng=1)
        assert verifier.remaining_challenges(0) == before - 4

    def test_exhausted_table_refuses(self, verifier, study):
        for _ in range(4):  # 16 challenges / batch 4
            verifier.authenticate(0, study.instances[0], rng=1)
        with pytest.raises(RuntimeError, match="exhausted"):
            verifier.authenticate(0, study.instances[0], rng=1)


class TestStudy:
    @pytest.fixture(scope="class")
    def result(self):
        studies = {
            "ro-puf": make_study(conventional_design(n_ros=32), 6, rng=4),
            "aro-puf": make_study(aro_design(n_ros=32), 6, rng=4),
        }
        return authentication_study(
            studies,
            years=(0.0, 10.0),
            batch_size=8,
            n_challenges=32,
            rng=5,
        )

    def test_fresh_chips_authenticate(self, result):
        assert result.frr["ro-puf"][0] == 0.0
        assert result.frr["aro-puf"][0] == 0.0

    def test_aro_stays_authenticatable(self, result):
        assert result.frr["aro-puf"][-1] == 0.0

    def test_distances_recorded(self, result):
        assert len(result.genuine_distances["ro-puf"][10.0]) == 6
        assert len(result.impostor_distances["aro-puf"]) == 6

    def test_aging_widens_genuine_distance(self, result):
        import numpy as np

        for name in ("ro-puf", "aro-puf"):
            fresh = np.mean(result.genuine_distances[name][0.0])
            aged = np.mean(result.genuine_distances[name][10.0])
            assert aged >= fresh

    def test_eer_analysis(self, result):
        conv_eer, conv_thr = result.equal_error_rate("ro-puf", 10.0)
        aro_eer, aro_thr = result.equal_error_rate("aro-puf", 10.0)
        assert 0.0 <= conv_eer <= 1.0
        assert aro_eer <= conv_eer
        assert 0.0 < aro_thr < 0.5


def test_stored_pair_tables_replay_what_rebuilt_ones_read(monkeypatch):
    """The verifier authenticates against the pair tables it enrolled
    with.  The study result and the noisy generator's end state equal a
    run whose tables hold no pairs, so that every round rebuilds them."""

    def run():
        studies = {
            name: make_batch_study(design, 5, rng=4)
            for name, design in (
                ("ro-puf", conventional_design(n_ros=32)),
                ("aro-puf", aro_design(n_ros=32)),
            )
        }
        gen = np.random.default_rng(5)
        result = authentication_study(
            studies, years=(0.0, 10.0), batch_size=4, n_challenges=12, rng=gen
        )
        return result, gen.bit_generator.state

    stored = run()
    harvest = authentication_mod.harvest_crps

    def without_pairs(*args, **kwargs):
        return dataclasses.replace(harvest(*args, **kwargs), pairs=None)

    monkeypatch.setattr(authentication_mod, "harvest_crps", without_pairs)
    rebuilt = run()
    assert stored[0] == rebuilt[0]
    assert stored[1] == rebuilt[1]


# ---- the batch round -------------------------------------------------

#: 14 chips: a population on both sides of the 12-key block-seeding
#: threshold, at 32 ROs
BATCH_STUDY = make_batch_study(conventional_design(n_ros=32), 14, rng=31)
BATCH_DEVICES = {
    t: BATCH_STUDY.aged_instances(t) for t in (0.0, 10.0)
}


def enrolled_verifier(n_chips, n_challenges=12):
    v = Verifier(threshold=0.25, batch_size=3)
    for i, inst in enumerate(BATCH_DEVICES[0.0][:n_chips]):
        v.enroll(inst, n_challenges=n_challenges, rng=200 + i)
    return v


def reference_authenticate(verifier, claimed_id, device, gen):
    """One claim as the per-chip round reads it: the stored tables of the
    next challenges, the device's own frequencies, oscillator ``a``'s
    counts then ``b``'s per challenge, and a fractional Hamming distance."""
    table = verifier._tables[claimed_id]
    start = verifier._cursor[claimed_id]
    end = start + verifier.batch_size
    verifier._cursor[claimed_id] = end
    design = device.design
    pairs = table.challenge_pairs(design.n_ros, start, end)
    counts = noisy_counts(
        device.frequencies()[pairs.transpose(0, 2, 1)],
        design.readout.window_s,
        design.tech,
        gen,
    )
    answers = (counts[:, 0] > counts[:, 1]).astype(np.uint8)
    distance = fractional_hd(table.responses[start:end].ravel(), answers.ravel())
    return distance <= verifier.threshold, distance


claims_strategy = st.integers(1, BATCH_STUDY.n_chips).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([0.0, 10.0])),
            min_size=1,
            max_size=n + 2,
        ),
    )
)


@settings(max_examples=40, deadline=None)
@given(population=claims_strategy, seed=st.integers(0, 2**32 - 1))
def test_batch_round_is_a_loop_of_authenticate(population, seed):
    """``authenticate_many`` equals one ``authenticate`` per claim and a
    per-claim reference: distances, acceptances, remaining challenges and
    the shared generator's end state.  Claims repeat ids (each replays the
    next challenges), pit impostors against tables and mix aged devices."""
    n_chips, raw = population
    claims = [(cid, BATCH_DEVICES[t][dev]) for cid, dev, t in raw]
    # 16 rounds a table: more than any id is claimed
    batch_v, loop_v, ref_v = (enrolled_verifier(n_chips, 48) for _ in range(3))
    batch_gen, loop_gen, ref_gen = (np.random.default_rng(seed) for _ in range(3))

    batch = batch_v.authenticate_many(claims, rng=batch_gen)
    loop = [loop_v.authenticate(cid, dev, rng=loop_gen) for cid, dev in claims]
    ref = [reference_authenticate(ref_v, cid, dev, ref_gen) for cid, dev in claims]

    assert batch == loop
    assert [(r.accepted, r.distance) for r in batch] == ref
    for cid in range(n_chips):
        assert (
            batch_v.remaining_challenges(cid)
            == loop_v.remaining_challenges(cid)
            == ref_v._tables[cid].n_challenges - ref_v._cursor[cid]
        )
    state = batch_gen.bit_generator.state
    assert state == loop_gen.bit_generator.state == ref_gen.bit_generator.state


@pytest.mark.parametrize(
    "claims, error",
    [
        ([(0, 0), (1, 1), (99, 2)], KeyError),
        # chip 2's 12 challenges are 4 rounds of 3; the fifth claim is one too many
        ([(2, 2)] * 5, RuntimeError),
        ([(0, 0), (1, 1)] + [(3, 3)] * 5, RuntimeError),
    ],
)
def test_a_failing_claim_consumes_nothing(claims, error):
    """An unknown id or an exhausted table anywhere in a batch raises
    before any cursor moves or any normal is drawn."""
    verifier = enrolled_verifier(4)
    gen = np.random.default_rng(3)
    state = gen.bit_generator.state
    devices = BATCH_DEVICES[0.0]
    with pytest.raises(error):
        verifier.authenticate_many([(cid, devices[d]) for cid, d in claims], rng=gen)
    assert gen.bit_generator.state == state
    assert [verifier.remaining_challenges(c) for c in range(4)] == [12] * 4


def test_batch_round_wants_one_design():
    verifier = enrolled_verifier(2)
    other = make_batch_study(aro_design(n_ros=32), 2, rng=31).instances
    with pytest.raises(ValueError, match="one design"):
        verifier.authenticate_many([(0, BATCH_DEVICES[0.0][0]), (1, other[1])])
    assert verifier.authenticate_many([]) == []

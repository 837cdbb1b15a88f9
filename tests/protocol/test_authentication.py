"""Verifier protocol and the authentication study."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aro_design, conventional_design, make_batch_study, make_study
from repro.environment import noisy_counts
from repro.metrics.hamming import fractional_hd
from repro.protocol import Verifier, authentication_study, harvest_crps
from repro.protocol import authentication as authentication_mod
from repro.protocol.crp import CRP_PAIRING


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
    harvest = authentication_mod.harvest_many

    def without_pairs(*args, **kwargs):
        return [
            dataclasses.replace(table, pairs=None)
            for table in harvest(*args, **kwargs)
        ]

    monkeypatch.setattr(authentication_mod, "harvest_many", without_pairs)
    rebuilt = run()
    assert stored[0] == rebuilt[0]
    assert stored[1] == rebuilt[1]


# ---- the batch round -------------------------------------------------

#: 14 chips: a population on both sides of the 12-key block-seeding
#: threshold, at 32 ROs.  The per-chip reference, whose frequency rows
#: are each instance's own frequencies word for word.
BATCH_DESIGNS = {
    "ro-puf": conventional_design(n_ros=32),
    "aro-puf": aro_design(n_ros=32),
}
REFERENCES = {
    name: make_study(design, 14, rng=31) for name, design in BATCH_DESIGNS.items()
}
ROUND_STUDY = REFERENCES["ro-puf"]
BATCH_DESIGN = ROUND_STUDY.design
BATCH_DEVICES = {0.0: ROUND_STUDY.instances, 10.0: ROUND_STUDY.aged_instances(10.0)}
BATCH_ROWS = {t: ROUND_STUDY.frequencies(t) for t in (0.0, 10.0)}


def enrolled_verifier(n_chips, n_challenges=12):
    v = Verifier(threshold=0.25, batch_size=3)
    v.enroll_many(
        range(n_chips),
        BATCH_ROWS[0.0][:n_chips],
        BATCH_DESIGN,
        n_challenges,
        [200 + i for i in range(n_chips)],
    )
    return v


def reference_harvest(instance, n_challenges, gen):
    """One chip's table as the per-chip enrolment reads it: challenges
    drawn without replacement, one matching per challenge through the
    scalar ``pairs``, and the true frequencies compared directly."""
    challenges = gen.choice(2**31 - 1, size=n_challenges, replace=False)
    pairs = np.stack([CRP_PAIRING.pairs(instance.design.n_ros, c) for c in challenges])
    freqs = instance.frequencies()
    responses = (freqs[pairs[..., 0]] > freqs[pairs[..., 1]]).astype(np.uint8)
    return challenges, responses, pairs


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(BATCH_DESIGNS)),
    n_chips=st.integers(1, 14),
    n_challenges=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_enroll_many_is_a_loop_of_harvest_crps(name, n_chips, n_challenges, seed):
    """Rows-level enrolment equals a loop of per-chip ``harvest_crps``
    and a per-chip reference: challenges, responses, stored pair tables,
    cursors and every chip's generator end state."""
    reference = REFERENCES[name]
    instances = reference.instances[:n_chips]
    # ids other than the row index, to show each table lands on its id
    ids = [3 * i + 1 for i in range(n_chips)]
    gens = {
        path: [np.random.default_rng([seed, i]) for i in range(n_chips)]
        for path in ("batch", "loop", "ref")
    }
    verifier = Verifier()
    verifier.enroll_many(
        ids,
        reference.frequencies()[:n_chips],
        reference.design,
        n_challenges,
        gens["batch"],
    )
    assert verifier.enrolled_chips() == ids
    for i, (chip_id, inst) in enumerate(zip(ids, instances)):
        table = verifier._tables[chip_id]
        loop = harvest_crps(inst, n_challenges, rng=gens["loop"][i])
        challenges, responses, pairs = reference_harvest(
            inst, n_challenges, gens["ref"][i]
        )
        assert table.chip_id == chip_id
        assert table.challenges.tolist() == loop.challenges.tolist() == challenges.tolist()
        assert table.responses.tolist() == loop.responses.tolist() == responses.tolist()
        assert table.pairs.dtype == loop.pairs.dtype == np.int8
        assert table.pairs.tolist() == loop.pairs.tolist() == pairs.tolist()
        assert verifier.remaining_challenges(chip_id) == n_challenges
        state = gens["batch"][i].bit_generator.state
        assert state == gens["loop"][i].bit_generator.state
        assert state == gens["ref"][i].bit_generator.state


def test_enroll_many_checks_its_rows():
    verifier = Verifier()
    rows = BATCH_ROWS[0.0][:2]
    with pytest.raises(ValueError, match="shape"):
        verifier.enroll_many([0, 1, 2], rows, BATCH_DESIGN, 4, [1, 2, 3])
    with pytest.raises(ValueError, match="generators"):
        verifier.enroll_many([0, 1], rows, BATCH_DESIGN, 4, [1])
    with pytest.raises(ValueError, match="positive"):
        verifier.enroll_many([0, 1], rows, BATCH_DESIGN, 0, [1, 2])
    assert verifier.enrolled_chips() == []


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


claims_strategy = st.integers(1, ROUND_STUDY.n_chips).flatmap(
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
    """``authenticate_many`` over frequency rows equals one
    ``authenticate`` per claim on the devices those rows belong to, and a
    per-claim reference: distances, acceptances, remaining challenges and
    the shared generator's end state.  Claims repeat ids (each replays the
    next challenges), pit impostors against tables and mix aged devices."""
    n_chips, raw = population
    ids = [cid for cid, _, _ in raw]
    rows = np.stack([BATCH_ROWS[t][dev] for _, dev, t in raw])
    devices = [BATCH_DEVICES[t][dev] for _, dev, t in raw]
    # 16 rounds a table: more than any id is claimed
    batch_v, loop_v, ref_v = (enrolled_verifier(n_chips, 48) for _ in range(3))
    batch_gen, loop_gen, ref_gen = (np.random.default_rng(seed) for _ in range(3))

    batch = batch_v.authenticate_many(ids, rows, BATCH_DESIGN, rng=batch_gen)
    loop = [
        loop_v.authenticate(cid, dev, rng=loop_gen) for cid, dev in zip(ids, devices)
    ]
    ref = [
        reference_authenticate(ref_v, cid, dev, ref_gen)
        for cid, dev in zip(ids, devices)
    ]

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
    ids = [cid for cid, _ in claims]
    rows = BATCH_ROWS[0.0][[d for _, d in claims]]
    with pytest.raises(error):
        verifier.authenticate_many(ids, rows, BATCH_DESIGN, rng=gen)
    assert gen.bit_generator.state == state
    assert [verifier.remaining_challenges(c) for c in range(4)] == [12] * 4


def test_batch_round_wants_one_design():
    """A round reads one row of the design's oscillators per claim: rows
    of another array size, or a row count that is not the claim count,
    are refused before anything is drawn."""
    verifier = enrolled_verifier(2)
    gen = np.random.default_rng(3)
    state = gen.bit_generator.state
    wide = make_study(conventional_design(n_ros=64), 2, rng=31).frequencies()
    with pytest.raises(ValueError, match="design's oscillators"):
        verifier.authenticate_many([0, 1], wide, BATCH_DESIGN, rng=gen)
    with pytest.raises(ValueError, match="design's oscillators"):
        verifier.authenticate_many([0], BATCH_ROWS[0.0][:2], BATCH_DESIGN, rng=gen)
    assert gen.bit_generator.state == state
    assert [verifier.remaining_challenges(c) for c in range(2)] == [12] * 2
    empty = np.empty((0, BATCH_DESIGN.n_ros))
    assert verifier.authenticate_many([], empty, BATCH_DESIGN) == []

"""Property tests: the challenge-batched readout and the binomial tail.

``RoPufInstance.evaluate_many`` computes a chip's frequencies once per
corner and compares every challenge's pairs against them.  It must equal
one ``evaluate`` call per challenge bit for bit, and leave a shared
``Generator`` in the state that loop leaves it in.  A restatement of the
per-challenge readout (pairs, frequencies, ``compare_pairs`` or
``voted_response``) is kept here as the reference.

``binom_sf`` must equal ``scipy.stats.binom.sf`` bit for bit on the key-
generator search's grids and at the edges of the support.
"""

import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import aro_design, conventional_design
from repro.core.readout import compare_pairs, voted_response
from repro.ecc import standard_codes
from repro.ecc.repetition import binom_sf
from repro.environment import OperatingConditions, celsius
from repro.keygen.design import DEFAULT_REPETITIONS
from repro.protocol.crp import crp_instance

INSTANCES = {
    name: crp_instance(design.sample_instances(1, rng=11)[0])
    for name, design in {
        "ro-puf": conventional_design(n_ros=32),
        "aro-puf": aro_design(n_ros=32, n_stages=3),
    }.items()
}
PALETTE_T, PALETTE_N = np.array([(c.t, c.n) for c in standard_codes()], dtype=np.int64).T
CORNERS = (
    OperatingConditions.nominal(),
    OperatingConditions(temperature_k=celsius(85.0)),
)


def reference_evaluate(inst, challenge, conditions, noisy, votes, gen):
    """One challenge through the readout, the frequencies recomputed."""
    design = inst.design
    pairs = design.pairing.pairs(design.n_ros, challenge)
    freqs = inst.frequencies(conditions)
    if not noisy:
        return compare_pairs(freqs, pairs, design.tech, design.readout)
    return voted_response(
        freqs, pairs, design.tech, design.readout, votes=votes, rng=gen
    )


@settings(max_examples=60, deadline=None)
@given(
    design=st.sampled_from(sorted(INSTANCES)),
    pool=st.lists(st.integers(0, 2**31 - 2), min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=6),
    noisy=st.booleans(),
    votes=st.sampled_from([1, 3]),
    corner=st.sampled_from(range(len(CORNERS))),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_many_is_stacked_evaluate(
    design, pool, picks, noisy, votes, corner, seed
):
    # indexing a short pool makes duplicate challenges common
    challenges = [pool[i % len(pool)] for i in picks]
    votes = votes if noisy else 1
    inst = INSTANCES[design]
    kwargs = dict(conditions=CORNERS[corner], noisy=noisy, votes=votes)

    batch_gen = np.random.default_rng(seed)
    batch = inst.evaluate_many(challenges, rng=batch_gen, **kwargs)

    loop_gen = np.random.default_rng(seed)
    loop = np.stack([inst.evaluate(c, rng=loop_gen, **kwargs) for c in challenges])

    ref_gen = np.random.default_rng(seed)
    ref = np.stack(
        [
            reference_evaluate(inst, c, CORNERS[corner], noisy, votes, ref_gen)
            for c in challenges
        ]
    )

    assert batch.dtype == np.uint8 and batch.shape == (len(challenges), inst.n_bits)
    assert batch.tobytes() == loop.tobytes() == ref.tobytes()
    state = batch_gen.bit_generator.state
    assert state == loop_gen.bit_generator.state == ref_gen.bit_generator.state


def test_evaluate_many_rejects_what_evaluate_rejects():
    inst = INSTANCES["aro-puf"]
    with pytest.raises(ValueError, match="challenges is empty"):
        inst.evaluate_many([])
    with pytest.raises(ValueError, match="votes only applies"):
        inst.evaluate_many([1, 2], votes=3)
    with pytest.raises(ValueError, match="votes must be at least 1"):
        inst.evaluate_many([1, 2], noisy=True, votes=0)


def _assert_bitwise(k, n, p):
    ours = np.asarray(binom_sf(k, n, p))
    theirs = np.asarray(stats.binom.sf(k, n, p))
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.0, 0.5))
def test_binom_sf_matches_scipy_stats_on_the_search_grid(p):
    r = np.asarray(DEFAULT_REPETITIONS, dtype=np.int64)
    _assert_bitwise((r - 1) // 2, r, p)
    q = np.asarray(stats.binom.sf((r - 1) // 2, r, p))
    _assert_bitwise(PALETTE_T, PALETTE_N, q[:, np.newaxis])


@pytest.mark.parametrize("n", [0, 1, 2, 7, 63, 255, 1023])
@pytest.mark.parametrize("p", [0.0, 1e-300, 1e-12, 0.25, 0.5, 1.0])
def test_binom_sf_matches_scipy_stats_across_the_support(n, p):
    _assert_bitwise(np.arange(n + 1), n, p)


def test_binom_sf_falls_back_without_the_private_ufunc(monkeypatch):
    monkeypatch.setitem(
        sys.modules, "scipy.special._ufuncs", types.ModuleType("scipy.special._ufuncs")
    )
    calls = []
    monkeypatch.setattr(
        stats, "binom", types.SimpleNamespace(sf=lambda *a: calls.append(a) or "sf")
    )
    assert binom_sf(3, 7, 0.3) == "sf"
    assert calls == [(3, 7, 0.3)]


@pytest.mark.parametrize("votes", [1, 3])
@pytest.mark.parametrize("design", sorted(INSTANCES))
def test_block_seeded_tables_keep_the_noisy_stream(design, votes):
    """A batch of 12 or more challenges gets its pair tables block-seeded
    (``RandomDisjointPairing.pairs_many``); the noisy readout must still
    equal the per-challenge loop and leave the shared generator where the
    loop leaves it."""
    inst = INSTANCES[design]
    challenges = np.array([0, 2**31 - 2, *range(7, 7 + 18 * 5, 5)], dtype=np.int64)
    batch_gen, loop_gen = np.random.default_rng(5), np.random.default_rng(5)
    batch = inst.evaluate_many(challenges, noisy=True, votes=votes, rng=batch_gen)
    loop = np.stack(
        [inst.evaluate(c, noisy=True, votes=votes, rng=loop_gen) for c in challenges]
    )
    assert batch.tobytes() == loop.tobytes()
    assert batch_gen.bit_generator.state == loop_gen.bit_generator.state

"""Property tests: the challenge-batched readout.

``RoPufInstance.evaluate_many`` computes a chip's frequencies once per
corner and compares every challenge's pairs against them.  It must equal
one ``evaluate`` call per challenge bit for bit, and leave a shared
``Generator`` in the state that loop leaves it in.  A restatement of the
per-challenge readout (pairs, frequencies, ``compare_pairs`` or
``voted_response``) is kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aro_design, conventional_design
from repro.core.readout import compare_pairs, voted_response
from repro.environment import OperatingConditions, celsius
from repro.protocol.crp import crp_instance

INSTANCES = {
    name: crp_instance(design.sample_instances(1, rng=11)[0])
    for name, design in {
        "ro-puf": conventional_design(n_ros=32),
        "aro-puf": aro_design(n_ros=32, n_stages=3),
    }.items()
}
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

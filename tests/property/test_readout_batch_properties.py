"""Property tests: the batched readout, over challenges and over chips.

``RoPufInstance.evaluate_many`` computes a chip's frequencies once per
corner and compares every challenge's pairs against them.  It must equal
one ``evaluate`` call per challenge bit for bit, and leave a shared
``Generator`` in the state that loop leaves it in.  A restatement of the
per-challenge readout (pairs, frequencies, ``compare_pairs`` or
``voted_response``) is kept here as the reference.

``read_population`` reads a whole population, shared or per-chip pair
tables, in one call.  Each row must equal that chip read alone, in both
noise modes: one shared generator (the chips in order, and the same end
state) and one seed key per row.  The reference restates the per-chip
read through ``noisy_counts``, table by table and oscillator by
oscillator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aro_design, conventional_design, make_batch_study
from repro.core.readout import compare_pairs, read_population, voted_response
from repro.environment import OperatingConditions, celsius, noisy_counts
from repro.protocol.crp import CRP_PAIRING, crp_instance

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


# ---- the chip axis: read_population ----------------------------------

#: a population of 14 chips at 32 ROs: block seeding starts at 12 keys
POPULATION = make_batch_study(conventional_design(n_ros=32), 14, rng=23)
POP_DESIGN = POPULATION.design
POP_FREQS = {
    corner: POP_DESIGN.frequencies(
        POPULATION.view.vth, POPULATION.view.tc_scale, CORNERS[corner]
    )
    for corner in range(len(CORNERS))
}


def reference_read(freqs, tables, gens):
    """Chip ``i`` read alone: for each of its tables, oscillator ``a``'s
    counts then ``b``'s from ``gens[i]``, through the counter model."""
    design = POP_DESIGN
    out = []
    for f, chip_tables, gen in zip(freqs, tables, gens):
        bits = []
        for pairs in chip_tables:
            counts = [
                noisy_counts(f[pairs[:, side]], design.readout.window_s, design.tech, gen)
                for side in (0, 1)
            ]
            bits.append((counts[0] > counts[1]).astype(np.uint8))
        out.append(bits)
    return np.array(out, dtype=np.uint8)


pair_tables = st.integers(0, 2**31 - 2).map(
    lambda c: CRP_PAIRING.pairs(POP_DESIGN.n_ros, c)
)


@settings(max_examples=60, deadline=None)
@given(
    n_chips=st.integers(1, POPULATION.n_chips),
    shared=st.booleans(),
    k=st.integers(1, 3),
    challenges=st.lists(st.integers(0, 2**31 - 2), min_size=3, max_size=3),
    per_row_keys=st.booleans(),
    corner=st.sampled_from(range(len(CORNERS))),
    seed=st.integers(0, 2**32 - 1),
)
def test_population_read_is_chip_by_chip_reads(
    n_chips, shared, k, challenges, per_row_keys, corner, seed
):
    """Row ``i`` of one population read equals chip ``i`` read alone:
    with one shared generator, the chips read in order from it (bits and
    end state); with one key per row, chip ``i`` reads from
    ``default_rng(keys[i])`` (below 12 keys and from 12 on, where the
    keys are block-seeded)."""
    freqs = POP_FREQS[corner][:n_chips]
    design = POP_DESIGN
    if shared:
        pairs = CRP_PAIRING.pairs(design.n_ros, challenges[0])
        tables = np.broadcast_to(pairs, (n_chips, 1) + pairs.shape)
    else:
        tables = np.stack(
            [
                CRP_PAIRING.pairs_many(design.n_ros, [(c + i) % (2**31 - 1) for c in challenges[:k]])
                for i in range(n_chips)
            ]
        )
        pairs = tables
    if per_row_keys:
        keys = [seed + 7 * i for i in range(n_chips)]
        got = read_population(
            freqs, pairs, design.tech, design.readout, noisy=True, keys=keys
        )
        ref = reference_read(freqs, tables, [np.random.default_rng(key) for key in keys])
        one_chip = [
            compare_pairs(f, t[0], design.tech, design.readout, noisy=True, rng=key)
            for f, t, key in zip(freqs, tables, keys)
        ]
        assert np.array(one_chip).tobytes() == ref[:, 0].tobytes()
    else:
        gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        got = read_population(
            freqs, pairs, design.tech, design.readout, noisy=True, rng=gen
        )
        ref = reference_read(freqs, tables, [ref_gen] * n_chips)
        assert gen.bit_generator.state == ref_gen.bit_generator.state
    if shared:
        ref = ref[:, 0]
    assert got.dtype == np.uint8 and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()

    quiet = read_population(freqs, pairs, design.tech, design.readout)
    rows = np.arange(n_chips).reshape(-1, 1, 1)
    truth = freqs[rows, tables[..., 0]] > freqs[rows, tables[..., 1]]
    assert quiet.tobytes() == (truth[:, 0] if shared else truth).astype(np.uint8).tobytes()


def test_population_read_checks_once_and_draws_nothing_on_error():
    design, freqs = POP_DESIGN, POP_FREQS[0]
    pairs = CRP_PAIRING.pairs(design.n_ros, 3)
    gen = np.random.default_rng(1)
    state = gen.bit_generator.state
    bad = pairs.copy()
    bad[-1, -1] = design.n_ros

    def read(f, p, **noise):
        return read_population(f, p, design.tech, design.readout, noisy=True, **noise)

    with pytest.raises(ValueError, match="out of range"):
        read(freqs, bad, rng=gen)
    with pytest.raises(ValueError, match="pair tables for"):
        read(freqs, np.stack([pairs[None]] * 2), rng=gen)
    with pytest.raises(ValueError, match="keys for"):
        read(freqs, pairs, keys=[1, 2])
    with pytest.raises(ValueError, match="rng or keys"):
        read(freqs, pairs, rng=gen, keys=range(14))
    with pytest.raises(ValueError, match="wraps"):
        read(freqs * 1e3, pairs, rng=gen)
    with pytest.raises(ValueError, match="positive"):
        read(-freqs, pairs, rng=gen)
    assert gen.bit_generator.state == state

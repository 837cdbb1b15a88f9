"""Block seeding is ``default_rng``, key for key and draw for draw.

:func:`repro._rng.seeded_generators` re-implements NumPy's
``SeedSequence`` hashing, vectorised over a block of spawn keys, so every
fabricated chip depends on it matching NumPy exactly.  These properties
compare it with ``np.random.default_rng(key)`` itself: the bit-generator
state, then every draw kind the fabricators and ``spawn_keys`` use.  A
NumPy release that changes its seeding fails here, loudly, instead of
silently changing every chip.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import (
    _MIN_BLOCK_KEYS,
    _seed_states,
    as_generators,
    seeded_generators,
    spawn,
    spawn_keys,
)

#: word-boundary keys: one-word and two-word entropy, and the largest
#: key ``spawn_keys`` can draw
EDGE_KEYS = (0, 1, 2**32 - 1, 2**32, 2**63 - 2)

#: block lengths on both sides of the short-block fallback
keys_strategy = st.lists(
    st.one_of(st.sampled_from(EDGE_KEYS), st.integers(0, 2**63 - 2)),
    min_size=1,
    max_size=3 * _MIN_BLOCK_KEYS,
)


def _draws(gen: np.random.Generator) -> list:
    """One of each draw kind, in the fabricators' order."""
    out = np.empty((3, 2, 2))
    return [
        gen.standard_normal(),
        gen.standard_normal(7),
        gen.standard_normal(out=out).copy(),
        gen.lognormal(mean=-0.3, sigma=0.4, size=(3, 2)),
        gen.integers(0, 2**63 - 1, size=5, dtype=np.int64),
        gen.standard_normal(),
    ]


def _assert_same_stream(got: np.random.Generator, key: int) -> None:
    want = np.random.default_rng(key)
    assert got.bit_generator.state == want.bit_generator.state, key
    for a, b in zip(_draws(got), _draws(want)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), key


@settings(max_examples=60, deadline=None)
@given(keys=keys_strategy)
def test_block_seeding_equals_default_rng(keys):
    for gen, key in zip(seeded_generators(keys), keys):
        _assert_same_stream(gen, key)
    # an int64 key array (how the store holds its keys) seeds the same
    for gen, key in zip(seeded_generators(np.asarray(keys, dtype=np.int64)), keys):
        _assert_same_stream(gen, key)


@settings(max_examples=60, deadline=None)
@given(keys=keys_strategy)
def test_vectorised_hash_equals_seed_sequence(keys):
    """The vectorised hash, whatever the block length, is
    ``SeedSequence(key).generate_state(4, uint64)`` word for word."""
    states = _seed_states(np.asarray(keys, dtype=np.uint64))
    for state, key in zip(states, keys):
        want = np.random.SeedSequence(key).generate_state(4, np.uint64)
        assert state.tobytes() == want.tobytes(), key


def test_edge_keys_in_a_vectorised_block():
    keys = list(EDGE_KEYS) * (-(-_MIN_BLOCK_KEYS // len(EDGE_KEYS)))
    assert len(keys) >= _MIN_BLOCK_KEYS
    for gen, key in zip(seeded_generators(keys), keys):
        _assert_same_stream(gen, key)


@pytest.mark.parametrize(
    "keys",
    [[-1], [3, -2], np.array([5, -7], dtype=np.int64), [1] * _MIN_BLOCK_KEYS + [-1]],
)
def test_negative_key_raises_like_default_rng(keys):
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        seeded_generators(keys)


def test_empty_block():
    assert seeded_generators([]) == []
    assert seeded_generators(np.array([], dtype=np.int64)) == []


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 20))
def test_spawn_equals_default_rng_over_spawn_keys(seed, n):
    children = spawn(seed, n)
    keys = spawn_keys(seed, n)
    assert len(children) == n
    for child, key in zip(children, keys):
        _assert_same_stream(child, key)


def test_as_generators_passes_generators_through():
    gen = np.random.default_rng(3)
    assert as_generators([gen])[0] is gen
    keys = np.arange(9, 9 + _MIN_BLOCK_KEYS)
    for seeded, key in zip(as_generators(keys), keys):
        _assert_same_stream(seeded, int(key))


def test_seeded_generator_pickles():
    gen = seeded_generators([2**40 + 17] * _MIN_BLOCK_KEYS)[0]
    gen.standard_normal(3)
    clone = pickle.loads(pickle.dumps(gen))
    assert clone.bit_generator.state == gen.bit_generator.state
    assert clone.standard_normal() == gen.standard_normal()

"""Seeded random-number plumbing shared by every stochastic component.

All Monte-Carlo machinery in :mod:`repro` draws from
:class:`numpy.random.Generator` objects.  To keep experiments reproducible
while still letting independent subsystems (process variation, aging
prefactors, evaluation noise, ...) consume randomness without interfering
with each other, we derive child generators from a single root seed using
``numpy``'s :class:`~numpy.random.SeedSequence` spawning facility.

**Block seeding.**  A population draws every chip from its own child
stream, ``default_rng(key)`` per spawn key, and most of that call's cost
is :class:`~numpy.random.SeedSequence` hashing a one-int entropy pool in
Python-level loops.  :func:`seeded_generators` runs the same hash over a
whole array of keys at once: NumPy's documented ``SeedSequence`` mixing
(O'Neill's ``seed_seq`` design: a 4-word pool, ``hashmix`` and ``mix``
on uint32 words, then ``generate_state(4, uint64)``), vectorised across
the keys, and hands each precomputed state to
``Generator(PCG64(...))`` through a minimal
:class:`~numpy.random.bit_generator.ISeedSequence`.  The guarantee is
that ``seeded_generators(keys)[i]`` has the bit-generator state of
``np.random.default_rng(keys[i])``, so it draws the same numbers for
every draw kind.  The vectorised hash has a fixed cost per block, so a
block of fewer than :data:`_MIN_BLOCK_KEYS` keys is seeded by
``default_rng`` itself.  ``tests/property/test_rng_block_seeding.py`` holds
the helper to that against NumPy itself, so a NumPy release that
changes its seeding fails that test instead of silently changing every
fabricated chip.
"""

from __future__ import annotations

import operator
from typing import List, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

RngLike = Union[int, np.random.Generator, np.random.SeedSequence, None]

#: Default root seed used when an experiment does not specify one.  Fixed so
#: that ``repro run`` regenerates the same tables run after run.
DEFAULT_SEED = 20140324  # DATE 2014 publication date


def as_generator(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts an integer seed, a ``SeedSequence``, an existing generator
    (returned unchanged), or ``None`` (fresh generator from
    :data:`DEFAULT_SEED`).
    """
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot make a Generator out of {rng!r}")


def spawn_keys(rng: RngLike, n: int) -> list:
    """The ``n`` child *seed keys* that :func:`spawn` would derive from ``rng``.

    Spawn keys are plain Python ints — the cheap, picklable form of a
    child stream.  ``np.random.default_rng(spawn_keys(rng, n)[i])`` is
    stream-for-stream identical to ``spawn(rng, n)[i]`` (both are defined
    through this function), which is what lets a coordinator ship keys to
    worker processes instead of tensors and still fabricate the exact
    silicon a serial run would.

    **Stability guarantee.**  The derivation is part of the package's
    reproducibility contract and is frozen: one batched draw of ``n``
    int64 values uniform on ``[0, 2**63 - 1)`` from the parent generator,
    key ``i`` being draw ``i``.  Consequences callers may rely on:

    * *stability across calls*: the same parent state and the same ``n``
      always produce the same key list;
    * *parent consumption*: the parent advances by exactly one size-``n``
      ``integers`` draw, so successive calls on one parent yield disjoint
      key lists (mirroring ``SeedSequence.spawn`` semantics without
      keeping the seed sequence around);
    * *no prefix promise*: whether ``spawn_keys(rng, n)`` is a prefix of
      ``spawn_keys(rng, n + 1)`` is an implementation detail of numpy's
      bounded-integer rejection sampling, deliberately outside this
      contract — shard seeding therefore always derives the *full*
      population's keys once and slices, never re-derives per shard.

    Any change to this mapping is a breaking change to every recorded
    seed in ledgers and caches and must bump the package major version.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    gen = as_generator(rng)
    seeds = gen.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [int(s) for s in seeds]


def spawn(rng: RngLike, n: int) -> list:
    """Spawn ``n`` statistically independent child generators from ``rng``.

    The parent generator is consumed (one draw) so repeated calls with the
    same parent yield different children, mirroring ``SeedSequence.spawn``
    semantics without requiring the caller to keep the seed sequence around.
    Defined as ``default_rng`` over :func:`spawn_keys` (block-seeded by
    :func:`seeded_generators`), so the two stay bit-compatible by
    construction (the parallel engine depends on that).
    """
    return seeded_generators(spawn_keys(rng, n))


# ---- block seeding: NumPy's SeedSequence hash over an array of keys ---

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4  # SeedSequence's default pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)

#: below this many keys the vectorised hash's fixed cost (about 0.1 ms
#: of NumPy calls) exceeds ``default_rng``'s (about 10 µs a key), so
#: shorter blocks are seeded by ``default_rng`` itself
_MIN_BLOCK_KEYS = 12


def _hash_constants(init: int, mult: int, n: int) -> list:
    """The running hash constant before each of ``n + 1`` steps, as
    uint32 scalars.  SeedSequence advances it by one multiply per step
    whatever the data, so the sequence is fixed and can be taken once."""
    out, h = [], init
    for _ in range(n + 1):
        out.append(np.uint32(h))
        h = (h * mult) & _MASK32
    return out


#: one ``hashmix`` per pool word, then one per ordered pair of words
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
#: ``generate_state(4, uint64)`` draws 8 uint32 words
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, step: int) -> np.ndarray:
    value = (value ^ _HASH_A[step]) * _HASH_A[step + 1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


def _seed_states(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(k).generate_state(4, np.uint64)`` for every key, as
    one ``(len(keys), 4)`` uint64 array.

    A key below ``2**64`` is at most two uint32 entropy words, low word
    first; a one-word key hashes like its two-word form with a zero high
    word, because SeedSequence runs the hash out over zeros to fill its
    pool.  Every operation is on uint32 arrays, so products wrap mod
    ``2**32`` exactly as SeedSequence's do.
    """
    lo = (keys & np.uint64(_MASK32)).astype(np.uint32)
    hi = (keys >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(lo)
    pool = [_hashmix(word, step) for step, word in enumerate((lo, hi, zero, zero))]
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], step))
                step += 1
    words = np.empty((len(keys), 8), dtype=np.uint32)
    for i in range(8):
        value = (pool[i % _POOL_SIZE] ^ _HASH_B[i]) * _HASH_B[i + 1]
        words[:, i] = value ^ (value >> _XSHIFT)
    # pairs of words are little-endian uint64s, as in generate_state
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _PrecomputedState(ISeedSequence):
    """The seed sequence of one key, its PCG64 state already generated."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's generate_state(4, uint64) is precomputed")
        return self.state


def seeded_generators(keys: Sequence[int]) -> List[np.random.Generator]:
    """``[np.random.default_rng(k) for k in keys]``, seeded as one block.

    ``keys`` are non-negative ints below ``2**64`` (a list or an integer
    array); the generators are state-for-state identical to
    ``default_rng``'s (see the module docstring), at a fraction of the
    per-key cost once a block has a dozen keys or more; shorter blocks go
    through ``default_rng``.  A negative key raises ``ValueError`` as
    ``default_rng`` does.
    """
    if isinstance(keys, np.ndarray):
        if keys.ndim != 1 or keys.dtype.kind not in "iu":
            raise TypeError(f"keys must be a flat integer array, not {keys.dtype}")
        negative = keys.dtype.kind == "i" and keys.size and keys.min() < 0
        too_large = False
    else:
        # not np.asarray: a list of Python ints past int64 would become float64
        keys = [operator.index(k) for k in keys]
        negative = any(k < 0 for k in keys)
        too_large = any(k >= 2**64 for k in keys)
    if negative:
        raise ValueError("expected non-negative integer keys")
    if too_large:
        raise ValueError("block seeding takes keys below 2**64")
    if len(keys) < _MIN_BLOCK_KEYS:
        return [np.random.default_rng(int(key)) for key in keys]
    keys = np.asarray(keys, dtype=np.uint64)
    return [
        np.random.Generator(np.random.PCG64(_PrecomputedState(state)))
        for state in _seed_states(keys)
    ]


def as_generators(rngs: Sequence[RngLike]) -> List[np.random.Generator]:
    """One generator per entry of ``rngs``: spawn keys are block-seeded
    (:func:`seeded_generators`), anything else goes through
    :func:`as_generator`."""
    if isinstance(rngs, np.ndarray) or all(
        isinstance(r, (int, np.integer)) for r in rngs
    ):
        return seeded_generators(rngs)
    return [as_generator(r) for r in rngs]

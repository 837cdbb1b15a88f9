"""Challenge-to-pair mapping: which oscillators get compared.

An RO-PUF response bit is the sign of a frequency difference between two
oscillators; a *pairing scheme* decides which oscillators form each pair.
The choice matters:

* using each RO in at most one pair keeps response bits statistically
  independent (required for the entropy accounting of key generation);
* pairing *physically adjacent* ROs cancels the smooth intra-die variation
  component (good for stability) and most of the systematic layout
  component under the ARO's symmetric discipline;
* challenge-seeded random pairing gives the exponential challenge space
  the PUF literature advertises.

All schemes return an integer array of shape ``(n_bits, 2)``; pairs are
disjoint unless the scheme explicitly documents otherwise.  A batch of
challenges asks :meth:`PairingScheme.pairs_many` for all its tables at
once.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .._rng import seeded_generators


class PairingScheme(abc.ABC):
    """Strategy mapping ``(n_ros, challenge)`` to comparison pairs."""

    @abc.abstractmethod
    def pairs(self, n_ros: int, challenge: Optional[int] = None) -> np.ndarray:
        """Return the pair index array of shape ``(n_bits, 2)``."""

    def n_bits(self, n_ros: int) -> int:
        """Response width this scheme produces from ``n_ros`` oscillators.

        The built-in schemes override this with a closed form — the
        key-generator design-space search calls it against candidate array
        sizes in the hundreds of thousands, where materialising the pair
        array per probe would dominate the search.  Their closed forms
        also take an integer array of sizes and return the widths
        elementwise, which is how the search bisects every candidate at
        once.  This default materialises the pairs, once per size.
        """
        if isinstance(n_ros, np.ndarray):
            widths = [self.pairs(int(n)).shape[0] for n in n_ros.ravel()]
            return np.array(widths, dtype=np.int64).reshape(n_ros.shape)
        return self.pairs(n_ros).shape[0]

    def pairs_many(
        self, n_ros: int, challenges: Sequence[Optional[int]]
    ) -> np.ndarray:
        """Every challenge's pair array, shape ``(len(challenges), n_bits, 2)``.

        Row ``i`` is ``pairs(n_ros, challenges[i])``; this default stacks
        exactly that.  ``challenges`` must not be empty.
        """
        return np.stack([self.pairs(n_ros, c) for c in challenges])

    @staticmethod
    def _check(n_ros) -> None:
        # n_ros may be an integer array (the design search's bisection)
        if isinstance(n_ros, np.ndarray):
            too_small = n_ros.size and n_ros.min() < 2
        else:
            too_small = n_ros < 2
        if too_small:
            raise ValueError("need at least two oscillators to form a pair")


@dataclass(frozen=True)
class NeighborPairing(PairingScheme):
    """Disjoint adjacent pairs ``(0,1), (2,3), ...`` — the default.

    Adjacent oscillators share the local smooth variation, which cancels in
    the difference; each RO is used once, so bits are independent.  The
    challenge is ignored (key-generation mode uses one fixed response).
    """

    def pairs(self, n_ros: int, challenge: Optional[int] = None) -> np.ndarray:
        self._check(n_ros)
        n_pairs = n_ros // 2
        idx = np.arange(2 * n_pairs)
        return idx.reshape(n_pairs, 2)

    def n_bits(self, n_ros: int) -> int:
        self._check(n_ros)
        return n_ros // 2


@dataclass(frozen=True)
class ChainPairing(PairingScheme):
    """Overlapping chain pairs ``(0,1), (1,2), ...``.

    Yields ``n_ros - 1`` bits from ``n_ros`` oscillators but *reuses* each
    oscillator, so neighbouring bits are correlated.  Included because many
    early RO-PUF papers (and area-optimised deployments) use it; the
    randomness benchmarks quantify the correlation penalty.
    """

    def pairs(self, n_ros: int, challenge: Optional[int] = None) -> np.ndarray:
        self._check(n_ros)
        idx = np.arange(n_ros)
        return np.column_stack([idx[:-1], idx[1:]])

    def n_bits(self, n_ros: int) -> int:
        self._check(n_ros)
        return n_ros - 1


@dataclass(frozen=True)
class RandomDisjointPairing(PairingScheme):
    """Challenge-seeded random disjoint pairs.

    The challenge seeds a permutation of the oscillator indices; successive
    permuted indices are paired.  Different challenges therefore select
    different random matchings — this is the mode that exposes a large
    challenge space.  ``default_challenge`` is used when a caller passes
    ``challenge=None``.
    """

    default_challenge: int = 0

    def pairs(self, n_ros: int, challenge: Optional[int] = None) -> np.ndarray:
        self._check(n_ros)
        seed = self._seed(challenge)
        return self._matchings([np.random.default_rng(seed)], n_ros)[0]

    def pairs_many(
        self, n_ros: int, challenges: Sequence[Optional[int]]
    ) -> np.ndarray:
        """Every challenge's matching, the challenge seeds hashed as one
        block (:func:`~repro._rng.seeded_generators`): the same tables as
        stacking :meth:`pairs`, without a ``default_rng`` per challenge.
        Challenges of ``2**64`` and up, which block seeding does not
        take, get a ``default_rng`` each."""
        self._check(n_ros)
        seeds = [self._seed(c) for c in challenges]
        if any(seed >= 2**64 for seed in seeds):
            gens = [np.random.default_rng(seed) for seed in seeds]
        else:
            gens = seeded_generators(seeds)
        return self._matchings(gens, n_ros)

    def _seed(self, challenge: Optional[int]) -> int:
        seed = self.default_challenge if challenge is None else int(challenge)
        if seed < 0:
            raise ValueError("challenge must be a non-negative integer")
        return seed

    @staticmethod
    def _matchings(gens: Sequence[np.random.Generator], n_ros: int) -> np.ndarray:
        """One matching per generator, ``(len(gens), n_ros // 2, 2)``: each
        row of an ``arange`` block shuffled by its generator (what
        ``gen.permutation(n_ros)`` draws), successive indices paired."""
        perms = np.empty((len(gens), n_ros), dtype=np.int64)
        perms[:] = np.arange(n_ros)
        for row, gen in zip(perms, gens):
            gen.shuffle(row)
        n_pairs = n_ros // 2
        return perms[:, : 2 * n_pairs].reshape(len(gens), n_pairs, 2)

    def n_bits(self, n_ros: int) -> int:
        self._check(n_ros)
        return n_ros // 2


@dataclass(frozen=True)
class DistantPairing(PairingScheme):
    """Disjoint pairs of maximally *distant* oscillators ``(i, i + n/2)``.

    The adversarial counterpart of :class:`NeighborPairing`: distant pairs
    pick up the full systematic and correlated spatial components, which is
    exactly what the layout-sensitivity ablation (experiment E8) wants to
    demonstrate.
    """

    def pairs(self, n_ros: int, challenge: Optional[int] = None) -> np.ndarray:
        self._check(n_ros)
        half = n_ros // 2
        idx = np.arange(half)
        return np.column_stack([idx, idx + half])

    def n_bits(self, n_ros: int) -> int:
        self._check(n_ros)
        return n_ros // 2

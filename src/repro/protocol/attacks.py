"""Modeling attacks on RO-PUF authentication: the sorting attack.

An RO-PUF's challenge-to-pair mapping is public (the challenge seeds a
permutation), so every disclosed response bit hands the attacker one
ground-truth comparison ``f_a > f_b``.  Comparisons compose: once the
attacker has observed enough CRPs to connect oscillators ``a`` and ``b``
through a chain of comparisons, the pair's response is predictable without
touching the device — the PUF's entropy is *at most* ``log2(n!)``, not
``2^challenge_bits``.

:func:`sorting_attack` implements the attack and :func:`attack_curve`
measures prediction accuracy versus the number of disclosed CRPs —
experiment E11.  The point it makes for this paper: the attack works
*identically* against the conventional RO-PUF and the ARO-PUF (aging
resistance is orthogonal to modeling resistance), which is why the
key-generation mode — where responses never leave the chip — is the
deployment the area argument (E6) is about, and why the authentication
verifier (E10) must never reuse challenges.

The attacker's model is an ``n_ros x n_ros`` boolean matrix of observed
comparisons plus its reachability matrix (the transitive closure,
computed once per training set with Warshall's algorithm in numpy), so
every prediction is one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .._rng import RngLike, as_generator
from ..core.base import RoPufInstance
from .crp import CrpTable, harvest_crps


def _reachability(comparisons: np.ndarray) -> np.ndarray:
    """Transitive closure of a boolean adjacency matrix (Warshall).

    ``out[u, v]`` is true when a path of length >= 1 leads from ``u`` to
    ``v``, so the diagonal is true exactly for nodes on a cycle.
    """
    reach = np.array(comparisons, dtype=bool)
    for k in range(reach.shape[0]):
        reach |= reach[:, k, np.newaxis] & reach[k]
    return reach


@dataclass(frozen=True)
class SortingAttackModel:
    """The attacker's knowledge: inferred speed orderings between ROs.

    ``comparisons[u, v]`` means "oscillator ``v`` was observed faster than
    ``u``"; ``reachable`` is its transitive closure.  Noisy tables can
    hold contradictory comparisons, so both may contain cycles.
    """

    comparisons: np.ndarray
    reachable: np.ndarray
    n_ros: int

    @property
    def n_comparisons(self) -> int:
        """Distinct directly observed comparisons."""
        return int(np.count_nonzero(self.comparisons))

    def known_order_fraction(self) -> float:
        """Fraction of all RO pairs whose order the model can derive.

        Counts every reachable ordered pair, including the self-pair of a
        node on a cycle, so contradictory models can exceed 1.
        """
        total = self.n_ros * (self.n_ros - 1) // 2
        return int(np.count_nonzero(self.reachable)) / total

    def predict_bit(self, a: int, b: int, rng: RngLike = None) -> Tuple[int, bool]:
        """Predict ``sign(f_a > f_b)``; returns ``(bit, was_derived)``
        (a one-pair view of :meth:`predict_bits`)."""
        bits, derived = self.predict_bits(np.array([[a, b]]), rng=rng)
        return int(bits[0]), bool(derived[0])

    def predict_bits(
        self, pairs: np.ndarray, rng: RngLike = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predict ``sign(f_a > f_b)`` for every row ``(a, b)`` of ``pairs``.

        Returns ``(bits, was_derived)``.  Unknown orderings fall back to
        coin flips (``was_derived=False``): one sized ``integers(0, 2,
        size=n_unknown)`` draw, in row order, from one generator.  NumPy
        fills a sized draw with the values of as many scalar draws and
        leaves the generator where they leave it
        (``tests/property/test_draw_order_identities.py``), so a shared
        generator sees the draws of a pair-by-pair :meth:`predict_bit` loop.
        """
        a, b = pairs[:, 0], pairs[:, 1]
        up = (a == b) | self.reachable[b, a]
        derived = up | self.reachable[a, b]
        bits = up.astype(np.uint8)
        unknown = np.flatnonzero(~derived)
        if unknown.size:
            bits[unknown] = as_generator(rng).integers(0, 2, size=unknown.size)
        return bits, derived

    def accuracy(self, test: CrpTable, rng: RngLike = None) -> float:
        """Bit-prediction accuracy on the CRPs of ``test``."""
        # every challenge's rows in order: one predict_bits call draws
        # what one call per challenge would
        pairs = test.challenge_pairs(self.n_ros).reshape(-1, 2)
        bits, _ = self.predict_bits(pairs, rng=rng)
        correct = int(np.count_nonzero(bits == test.responses.ravel()))
        return correct / test.responses.size


def build_attack_model(table: CrpTable, n_ros: int) -> SortingAttackModel:
    """Digest disclosed CRPs into the comparison and reachability matrices."""
    comparisons = np.zeros((n_ros, n_ros), dtype=bool)
    pairs = table.challenge_pairs(n_ros).reshape(-1, 2)
    faster = table.responses.ravel().astype(bool)  # f_a > f_b : b -> a
    slow = np.where(faster, pairs[:, 1], pairs[:, 0])
    fast = np.where(faster, pairs[:, 0], pairs[:, 1])
    comparisons[slow, fast] = True
    return SortingAttackModel(
        comparisons=comparisons,
        reachable=_reachability(comparisons),
        n_ros=n_ros,
    )


def sorting_attack(
    train: CrpTable,
    test: CrpTable,
    n_ros: int,
    rng: RngLike = None,
) -> float:
    """Train on disclosed CRPs, return bit-prediction accuracy on unseen ones."""
    return build_attack_model(train, n_ros).accuracy(test, rng=rng)


def attack_curve(
    instance: RoPufInstance,
    train_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32),
    n_test: int = 32,
    rng: RngLike = None,
) -> List[Tuple[int, float, float]]:
    """E11 series: (disclosed CRPs, prediction accuracy, order coverage).

    One harvested table is split so train/test challenges never overlap.
    """
    gen = as_generator(rng)
    max_train = max(train_sizes)
    table = harvest_crps(instance, max_train + n_test, rng=gen)
    test = table.split(max_train)[1]
    rows = []
    for n_train in train_sizes:
        train = table.split(n_train)[0]
        model = build_attack_model(train, instance.design.n_ros)
        accuracy = model.accuracy(test, rng=gen)
        rows.append((n_train, accuracy, model.known_order_fraction()))
    return rows

"""Challenge-response pair (CRP) harvesting.

The abstract's first use case for a PUF is the *chip-specific identifier*:
a verifier stores a table of challenge-response pairs per chip at
enrolment and later authenticates the device by replaying challenges.
This module produces those tables from any
:class:`~repro.core.base.RoPufInstance` using the challenge-seeded random
pairing (each challenge selects a fresh random disjoint matching of the
oscillators, which is how RO-PUFs expose a large challenge space).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .._rng import RngLike, as_generator
from ..core.base import RoPufInstance
from ..core.pairing import RandomDisjointPairing
from ..environment.conditions import OperatingConditions


#: The pairing rule of every CRP: each challenge seeds its own random
#: disjoint matching of the oscillators.
CRP_PAIRING = RandomDisjointPairing()


def crp_instance(instance: RoPufInstance) -> RoPufInstance:
    """``instance`` read through :data:`CRP_PAIRING`, as CRPs are."""
    return replace(instance.design, pairing=CRP_PAIRING).instantiate(instance.chip)


@dataclass(frozen=True)
class CrpTable:
    """A verifier-side table of challenges and enrolled responses.

    ``pairs``, when the table holds them, are each challenge's oscillator
    pairs as :data:`CRP_PAIRING` maps them, shape ``(n_challenges,
    n_bits, 2)``: :func:`harvest_crps` keeps the tables it enrolled
    with, so replaying a challenge does not rebuild its matching.
    """

    challenges: np.ndarray
    responses: np.ndarray
    chip_id: int
    pairs: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        ch = np.asarray(self.challenges, dtype=np.int64)
        rs = np.asarray(self.responses, dtype=np.uint8)
        if ch.ndim != 1:
            raise ValueError("challenges must be a 1-D integer array")
        if rs.ndim != 2 or rs.shape[0] != ch.shape[0]:
            raise ValueError(
                "responses must have shape (n_challenges, n_bits) matching "
                "the challenge count"
            )
        object.__setattr__(self, "challenges", ch)
        object.__setattr__(self, "responses", rs)
        if self.pairs is not None:
            pairs = np.asarray(self.pairs)
            if pairs.shape != rs.shape + (2,) or pairs.dtype.kind != "i":
                raise ValueError(
                    "pairs must be an integer array of shape "
                    f"{rs.shape + (2,)}, got {pairs.dtype} {pairs.shape}"
                )
            object.__setattr__(self, "pairs", pairs)

    @property
    def n_challenges(self) -> int:
        return int(self.challenges.size)

    @property
    def n_bits(self) -> int:
        return int(self.responses.shape[1])

    def lookup(self, challenge: int) -> np.ndarray:
        """Enrolled response for ``challenge`` (raises if never enrolled)."""
        idx = np.nonzero(self.challenges == challenge)[0]
        if idx.size == 0:
            raise KeyError(f"challenge {challenge} is not in the table")
        return self.responses[int(idx[0])]

    def challenge_pairs(
        self, n_ros: int, lo: int = 0, hi: Optional[int] = None
    ) -> np.ndarray:
        """The pair tables of challenges ``lo:hi``: the stored ones, or
        rebuilt through :data:`CRP_PAIRING` for a table that holds none."""
        if self.pairs is not None:
            return self.pairs[lo:hi]
        return CRP_PAIRING.pairs_many(n_ros, self.challenges[lo:hi])

    def split(self, n_train: int) -> "tuple[CrpTable, CrpTable]":
        """Split into (train, test) tables — used by the attack analysis."""
        if not 0 < n_train < self.n_challenges:
            raise ValueError(
                f"n_train must be in (0, {self.n_challenges}), got {n_train}"
            )
        return (
            CrpTable(
                challenges=self.challenges[:n_train],
                responses=self.responses[:n_train],
                chip_id=self.chip_id,
                pairs=None if self.pairs is None else self.pairs[:n_train],
            ),
            CrpTable(
                challenges=self.challenges[n_train:],
                responses=self.responses[n_train:],
                chip_id=self.chip_id,
                pairs=None if self.pairs is None else self.pairs[n_train:],
            ),
        )


def harvest_crps(
    instance: RoPufInstance,
    n_challenges: int,
    *,
    rng: RngLike = None,
    conditions: Optional[OperatingConditions] = None,
    noisy: bool = False,
    votes: int = 1,
) -> CrpTable:
    """Collect a CRP table from one chip.

    Challenges are drawn without replacement from the 31-bit challenge
    space; each seeds a :class:`~repro.core.pairing.RandomDisjointPairing`
    matching, and the table keeps those matchings (:attr:`CrpTable.pairs`)
    for the verifier to replay.  Enrolment normally uses the noiseless
    golden path (``noisy=False``); pass ``noisy=True`` with ``votes`` for
    a measurement-faithful enrolment.
    """
    if n_challenges < 1:
        raise ValueError("n_challenges must be positive")
    gen = as_generator(rng)
    challenges = gen.choice(2**31 - 1, size=n_challenges, replace=False)
    n_ros = instance.design.n_ros
    # kept as index data in the smallest signed dtype holding -n_ros
    # (int16 at 256 ROs): E10 keeps 8,000 tables
    pairs = CRP_PAIRING.pairs_many(n_ros, challenges)
    pairs = pairs.astype(np.min_scalar_type(-n_ros))
    responses = instance.evaluate_pairs(
        pairs,
        conditions=conditions,
        noisy=noisy,
        votes=votes if noisy else 1,
        rng=gen if noisy else None,
    )
    return CrpTable(
        challenges=challenges,
        responses=responses,
        chip_id=instance.chip_id,
        pairs=pairs,
    )

"""Challenge-response pair (CRP) harvesting.

The abstract's first use case for a PUF is the *chip-specific identifier*:
a verifier stores a table of challenge-response pairs per chip at
enrolment and later authenticates the device by replaying challenges.
This module produces those tables from a population's frequency rows
(:func:`harvest_many`) or from one
:class:`~repro.core.base.RoPufInstance` (:func:`harvest_crps`) using the
challenge-seeded random pairing (each challenge selects a fresh random
disjoint matching of the oscillators, which is how RO-PUFs expose a large
challenge space).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .._rng import RngLike, as_generator
from ..core.base import PufDesign, RoPufInstance
from ..core.pairing import RandomDisjointPairing
from ..core.readout import read_population


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
    n_bits, 2)``: :func:`harvest_many` keeps the tables it enrolled
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
    instance: RoPufInstance, n_challenges: int, *, rng: RngLike = None
) -> CrpTable:
    """Collect a CRP table from one chip: the one-chip case of
    :func:`harvest_many`."""
    return harvest_many(
        [instance.chip_id],
        instance.frequencies()[np.newaxis],
        instance.design,
        n_challenges,
        [rng],
    )[0]


def harvest_many(
    chip_ids: Sequence[int],
    frequencies: np.ndarray,
    design: PufDesign,
    n_challenges: int,
    rngs: Sequence[RngLike],
) -> List[CrpTable]:
    """Collect a CRP table from each chip of a population, as one read.

    ``frequencies`` holds one ``(n_ros,)`` row of ``design`` per chip id
    (the nominal, noiseless golden corner).  Chip ``i`` draws its
    challenges without replacement from the 31-bit challenge space with
    ``rngs[i]``; each challenge seeds a
    :class:`~repro.core.pairing.RandomDisjointPairing` matching, and the
    table keeps those matchings (:attr:`CrpTable.pairs`) for the verifier
    to replay.  Every chip's tables are then compared in one noiseless
    :func:`~repro.core.readout.read_population` call, so table ``i`` and
    the end state of ``rngs[i]`` equal a one-chip harvest of row ``i``.
    """
    if n_challenges < 1:
        raise ValueError("n_challenges must be positive")
    frequencies = _rows(chip_ids, frequencies, design)
    if len(rngs) != len(chip_ids):
        raise ValueError(f"{len(rngs)} generators for {len(chip_ids)} chips")
    challenges = np.stack(
        [
            as_generator(rng).choice(2**31 - 1, size=n_challenges, replace=False)
            for rng in rngs
        ]
    )
    n_ros = design.n_ros
    # kept as index data in the smallest signed dtype holding -n_ros
    # (int16 at 256 ROs): E10 keeps 8,000 tables.  Narrowed chip by chip,
    # so no int64 table of the whole population is ever held
    dtype = np.min_scalar_type(-n_ros)
    pairs = np.stack(
        [CRP_PAIRING.pairs_many(n_ros, c).astype(dtype) for c in challenges]
    )
    responses = read_population(frequencies, pairs, design.tech, design.readout)
    return [
        CrpTable(challenges=c, responses=r, chip_id=chip_id, pairs=p)
        for chip_id, c, r, p in zip(chip_ids, challenges, responses, pairs)
    ]


def _rows(chip_ids: Sequence[int], frequencies: np.ndarray, design: PufDesign) -> np.ndarray:
    """``frequencies`` as ``(len(chip_ids), design.n_ros)`` float rows."""
    frequencies = np.asarray(frequencies, dtype=float)
    want = (len(chip_ids), design.n_ros)
    if frequencies.shape != want:
        raise ValueError(
            f"frequencies must have shape {want} (one row of the design's "
            f"oscillators per chip), got {frequencies.shape}"
        )
    return frequencies

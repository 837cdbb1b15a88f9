"""Key-generator design-space search: the machinery behind the 24x claim.

Given a raw response bit-error probability ``p`` (the 10-year aged figure
from experiment E2), a key width, and a key-failure target, search the
(repetition factor, BCH code) plane for the *minimum-total-area*
configuration, where total area is

    PUF array sized to source the raw bits  +  ECC decoder datapath.

The aged conventional RO-PUF (p ~ 0.32) forces a heavy repetition inner
code (raw-bit blow-up) *and* a strong outer BCH (big decoder); the ARO-PUF
(p ~ 0.077) gets away with a light configuration.  The area ratio between
the two optima is the paper's ~24x result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.base import PufDesign
from ..ecc.area import keygen_area, repetition_decoder_area
from ..ecc.bch import BchCode, standard_codes
from ..ecc.concatenated import (
    ConcatenatedCode,
    KeyCodec,
    key_failure_probabilities,
)
from ..ecc.repetition import RepetitionCode

#: repetition factors explored by default (odd, 1 = no inner code)
DEFAULT_REPETITIONS = (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 25, 29, 33)


@dataclass(frozen=True)
class KeygenDesignPoint:
    """One feasible key-generator configuration with its cost breakdown."""

    codec: KeyCodec
    key_failure: float
    raw_bits: int
    n_ros: int
    puf_area: float
    ecc_area: float

    @property
    def total_area(self) -> float:
        return self.puf_area + self.ecc_area

    def describe(self) -> str:
        return (
            f"{self.codec}: raw_bits={self.raw_bits} n_ros={self.n_ros} "
            f"P_fail={self.key_failure:.2e} "
            f"area={self.total_area / 1e3:.1f}e3 um^2 "
            f"(PUF {self.puf_area / 1e3:.1f}, ECC {self.ecc_area / 1e3:.1f})"
        )


def _ros_for_raw_bits(design: PufDesign, raw_bits: np.ndarray) -> np.ndarray:
    """Oscillators needed to source each entry of ``raw_bits`` (int64 array).

    One bisection over the whole array on the pairing's bit yield: every
    entry walks the same steps as a scalar bisection of
    ``[2, 4 * raw_bits + 4]`` would, the built-in schemes' ``n_bits``
    answering all the probes of a step in one call.  An entry the pairing
    cannot source even at the bound (a :class:`StaticPairing` yields a
    fixed number of bits at any size) comes back as -1.
    """
    raw = np.asarray(raw_bits, dtype=np.int64)
    low = np.full(raw.shape, 2, dtype=np.int64)
    high = 4 * raw + 4
    active = low < high
    while active.any():
        mid = (low + high) // 2
        enough = np.asarray(design.pairing.n_bits(mid)) >= raw
        high = np.where(active & enough, mid, high)
        low = np.where(active & ~enough, mid + 1, low)
        active = low < high
    return np.where(np.asarray(design.pairing.n_bits(low)) >= raw, low, -1)


def _ros_for_bits(design: PufDesign, raw_bits: int) -> int:
    """Oscillators needed to source ``raw_bits`` response bits (raises
    ``ValueError`` when the pairing never yields that many)."""
    n_ros = int(_ros_for_raw_bits(design, np.array([raw_bits]))[0])
    if n_ros < 0:
        raise ValueError(
            f"{type(design.pairing).__name__} cannot source {raw_bits} bits "
            "at any array size"
        )
    return n_ros


class _PricedGrid:
    """The whole (repetition x outer code) grid, priced as float64 arrays.

    Every cell's key-failure probability, raw-bit count, array size and
    PUF / ECC / total area are computed once, with the same IEEE
    operations in the same order as :func:`~repro.ecc.area.keygen_area`
    and :meth:`PufDesign.puf_area` on one design point, so each array
    entry is bit-identical to costing its cell alone.  ``order`` lists
    the feasible cells (flat, row-major ``(repetition, palette)``
    indices) by total area, ties in grid order; :meth:`point` builds one
    :class:`KeygenDesignPoint`, so a caller that wants only the cheapest
    (:func:`best_design`, experiment E6) builds only that one.
    """

    def __init__(
        self,
        p: float,
        design: PufDesign,
        *,
        key_bits: int = 128,
        failure_target: float = 1.0e-6,
        repetitions: Sequence[int] = DEFAULT_REPETITIONS,
        bch_palette: Optional[List[BchCode]] = None,
        max_raw_bits: int = 200_000,
    ):
        if not 0.0 <= p < 0.5:
            raise ValueError("raw bit-error probability must be in [0, 0.5)")
        if not 0.0 < failure_target <= 1.0:
            raise ValueError(
                f"failure_target must be in (0, 1], got {failure_target}"
            )
        palette = bch_palette if bch_palette is not None else standard_codes()
        tech = design.tech
        self.key_bits = key_bits
        self.inners = [RepetitionCode(r) for r in repetitions]
        self.palette = list(palette)
        self.failures = np.array(
            key_failure_probabilities(p, repetitions, self.palette, key_bits),
            dtype=float,
        ).reshape(len(self.inners), len(self.palette))

        # the ECC area splits into an outer-code part and a repetition
        # part; summing them in AreaBreakdown.total's field order keeps
        # every total bit-identical to keygen_area(codec, tech).total
        heads, helpers, encoders, outer_bits = [], [], [], []
        for outer in self.palette:
            base = KeyCodec(
                code=ConcatenatedCode(outer=outer, inner=RepetitionCode(1)),
                key_bits=key_bits,
            )
            area = keygen_area(base, tech)
            heads.append(area.syndrome + area.berlekamp_massey + area.chien)
            helpers.append(area.helper_xor)
            encoders.append(area.encoder)
            outer_bits.append(base.raw_bits)
        rep_areas = np.array(
            [repetition_decoder_area(inner, tech) for inner in self.inners],
            dtype=float,
        )[:, None]
        self.ecc_area = (
            (np.array(heads, dtype=float)[None, :] + rep_areas)
            + np.array(helpers, dtype=float)[None, :]
        ) + np.array(encoders, dtype=float)[None, :]
        self.raw_bits = (
            np.array(outer_bits, dtype=np.int64)[None, :]
            * np.array(repetitions, dtype=np.int64).reshape(-1, 1)
        )

        # NaN-safe: a cell is dropped only by a comparison that holds
        feasible = ~(
            (self.raw_bits > max_raw_bits) | (self.failures > failure_target)
        )
        # the PUF side depends only on the raw-bit count, which repeats a
        # lot: size every distinct feasible count once
        self.n_ros = np.full(self.raw_bits.shape, -1, dtype=np.int64)
        distinct, where = np.unique(self.raw_bits[feasible], return_inverse=True)
        self.n_ros[feasible] = _ros_for_raw_bits(design, distinct)[where]
        feasible &= self.n_ros >= 0
        self.puf_area = np.zeros(self.raw_bits.shape)
        self.puf_area[feasible] = design.puf_area(self.n_ros[feasible])
        total = self.puf_area + self.ecc_area
        cells = np.flatnonzero(feasible)
        self.order = cells[np.argsort(total.ravel()[cells], kind="stable")]

    def point(self, cell: int) -> KeygenDesignPoint:
        """The design point of one flat grid cell."""
        i, j = divmod(int(cell), len(self.palette))
        return KeygenDesignPoint(
            codec=KeyCodec(
                code=ConcatenatedCode(outer=self.palette[j], inner=self.inners[i]),
                key_bits=self.key_bits,
            ),
            key_failure=float(self.failures[i, j]),
            raw_bits=int(self.raw_bits[i, j]),
            n_ros=int(self.n_ros[i, j]),
            puf_area=float(self.puf_area[i, j]),
            ecc_area=float(self.ecc_area[i, j]),
        )

    def cheapest(self) -> Optional[KeygenDesignPoint]:
        """The minimum-area feasible point, or ``None`` if there is none."""
        return self.point(self.order[0]) if self.order.size else None


def search_design_space(
    p: float,
    design: PufDesign,
    *,
    key_bits: int = 128,
    failure_target: float = 1.0e-6,
    repetitions: Sequence[int] = DEFAULT_REPETITIONS,
    bch_palette: Optional[List[BchCode]] = None,
    max_raw_bits: int = 200_000,
) -> List[KeygenDesignPoint]:
    """All feasible design points, sorted by total area (best first).

    ``design`` supplies the oscillator cell, readout, pairing and
    technology used to cost the PUF array (priced at each candidate size
    as :meth:`PufDesign.with_n_ros` would).  ``failure_target`` must be in
    ``(0, 1]``.

    The whole (repetition x outer code) grid is priced once as arrays
    (:class:`_PricedGrid`): one
    :func:`~repro.ecc.concatenated.key_failure_probabilities` call, one
    bisection for every feasible raw-bit count and one
    :meth:`PufDesign.puf_area` over the resulting array sizes.  A cell is
    feasible when its raw bits fit ``max_raw_bits``, its key-failure
    probability meets the target and the pairing can source its raw bits
    at all.  Points come out in (repetition, palette) order before the
    stable area sort, so ties keep that order.
    """
    grid = _PricedGrid(
        p,
        design,
        key_bits=key_bits,
        failure_target=failure_target,
        repetitions=repetitions,
        bch_palette=bch_palette,
        max_raw_bits=max_raw_bits,
    )
    return [grid.point(cell) for cell in grid.order]


def best_design(
    p: float,
    design: PufDesign,
    *,
    key_bits: int = 128,
    failure_target: float = 1.0e-6,
    **kwargs,
) -> KeygenDesignPoint:
    """The minimum-area feasible configuration (raises if none exists).

    Prices the same grid as :func:`search_design_space` and builds only
    its first point."""
    point = _PricedGrid(
        p, design, key_bits=key_bits, failure_target=failure_target, **kwargs
    ).cheapest()
    if point is None:
        raise ValueError(
            f"no feasible key generator at p={p} within the searched space; "
            "widen the repetition/BCH palette or relax the target"
        )
    return point

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
from typing import Dict, List, Optional, Sequence, Tuple

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


def _ros_for_bits(design: PufDesign, raw_bits: int) -> int:
    """Oscillators needed to source ``raw_bits`` response bits."""
    # invert the pairing's bit yield; all schemes here are ~linear, so walk
    # up from the information-theoretic minimum
    n_ros = max(2, raw_bits)
    low, high = 2, 4 * raw_bits + 4
    while low < high:
        mid = (low + high) // 2
        if design.pairing.n_bits(mid) >= raw_bits:
            high = mid
        else:
            low = mid + 1
    return low


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

    ``design`` supplies the oscillator cell, readout and technology used to
    cost the PUF array (it is resized per candidate via
    :meth:`PufDesign.with_n_ros`).

    The key-failure probability of the whole (repetition x outer code)
    grid comes from one call to
    :func:`~repro.ecc.concatenated.key_failure_probabilities`; only the
    feasible points are then costed.  Points come out in
    (repetition, palette) order before the stable area sort, so ties keep
    that order.
    """
    if not 0.0 <= p < 0.5:
        raise ValueError("raw bit-error probability must be in [0, 0.5)")
    if failure_target <= 0:
        raise ValueError("failure_target must be positive")
    palette = bch_palette if bch_palette is not None else standard_codes()
    inners = [RepetitionCode(r) for r in repetitions]
    failures = key_failure_probabilities(p, repetitions, palette, key_bits)

    # the ECC area splits into an outer-code part and a repetition part;
    # summing them in AreaBreakdown.total's field order keeps every total
    # bit-identical to keygen_area(codec, tech).total
    outer_parts = []
    for outer in palette:
        base = KeyCodec(
            code=ConcatenatedCode(outer=outer, inner=RepetitionCode(1)),
            key_bits=key_bits,
        )
        area = keygen_area(base, design.tech)
        head = area.syndrome + area.berlekamp_massey + area.chien
        outer_parts.append(
            (outer, base.raw_bits, head, area.helper_xor, area.encoder)
        )
    # the PUF side depends only on the raw-bit count, which repeats a lot
    puf_side: Dict[int, Tuple[int, float]] = {}

    points: List[KeygenDesignPoint] = []
    for inner, row in zip(inners, failures):
        rep_area = repetition_decoder_area(inner, design.tech)
        for (outer, bits, head, helper, encoder), pf in zip(outer_parts, row):
            raw_bits = bits * inner.r
            if raw_bits > max_raw_bits or pf > failure_target:
                continue
            if raw_bits not in puf_side:
                n_ros = _ros_for_bits(design, raw_bits)
                sized = design.with_n_ros(n_ros)
                puf_side[raw_bits] = (n_ros, sized.puf_area())
            n_ros, puf_area = puf_side[raw_bits]
            points.append(
                KeygenDesignPoint(
                    codec=KeyCodec(
                        code=ConcatenatedCode(outer=outer, inner=inner),
                        key_bits=key_bits,
                    ),
                    key_failure=pf,
                    raw_bits=raw_bits,
                    n_ros=n_ros,
                    puf_area=puf_area,
                    ecc_area=head + rep_area + helper + encoder,
                )
            )
    points.sort(key=lambda pt: pt.total_area)
    return points


def best_design(
    p: float,
    design: PufDesign,
    *,
    key_bits: int = 128,
    failure_target: float = 1.0e-6,
    **kwargs,
) -> KeygenDesignPoint:
    """The minimum-area feasible configuration (raises if none exists)."""
    points = search_design_space(
        p, design, key_bits=key_bits, failure_target=failure_target, **kwargs
    )
    if not points:
        raise ValueError(
            f"no feasible key generator at p={p} within the searched space; "
            "widen the repetition/BCH palette or relax the target"
        )
    return points[0]

"""Chip data model: per-transistor threshold voltages for an RO array.

A :class:`Chip` is the Monte-Carlo unit of the whole framework: it carries
one threshold-voltage sample per transistor of every ring-oscillator stage
on the die, plus the grid position of each RO.  Aging produces *new* chips
via :meth:`Chip.with_delta` — chips are treated as immutable so an
experiment can hold the fresh and the aged view of the same die
side by side.

Array layout
------------
``vth`` has shape ``(n_ros, n_stages, 2)`` where the last axis indexes the
device polarity: ``NMOS = 0`` (drives falling output transitions) and
``PMOS = 1`` (drives rising output transitions, and is the NBTI victim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

#: polarity index of the NMOS device in the last axis of ``Chip.vth``
NMOS = 0
#: polarity index of the PMOS device in the last axis of ``Chip.vth``
PMOS = 1


@dataclass(frozen=True)
class Chip:
    """One manufactured die: an array of ring-oscillator stages.

    Parameters
    ----------
    vth:
        Threshold-voltage magnitudes, shape ``(n_ros, n_stages, 2)``, volts.
    positions:
        RO grid coordinates, shape ``(n_ros, 2)``, in pitch units.
    tc_scale:
        Per-device multiplicative mismatch of the threshold temperature
        coefficient, same shape as ``vth`` (1.0 = nominal device).
    chip_id:
        Monte-Carlo index within its population (for reporting).
    """

    vth: np.ndarray
    positions: np.ndarray
    tc_scale: np.ndarray
    chip_id: int = 0

    def __post_init__(self) -> None:
        vth = np.asarray(self.vth, dtype=float)
        if vth.ndim != 3 or vth.shape[2] != 2:
            raise ValueError(
                f"vth must have shape (n_ros, n_stages, 2), got {vth.shape}"
            )
        if np.any(vth <= 0):
            raise ValueError("threshold magnitudes must be positive")
        positions = np.asarray(self.positions, dtype=float)
        if positions.shape != (vth.shape[0], 2):
            raise ValueError(
                f"positions must have shape ({vth.shape[0]}, 2), got {positions.shape}"
            )
        if np.asarray(self.tc_scale).shape != vth.shape:
            raise ValueError("tc_scale must have the same shape as vth")
        object.__setattr__(self, "vth", vth)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "tc_scale", np.asarray(self.tc_scale, dtype=float))

    @property
    def n_ros(self) -> int:
        """Number of ring oscillators on the die."""
        return self.vth.shape[0]

    @property
    def n_stages(self) -> int:
        """Number of inverting stages per ring oscillator."""
        return self.vth.shape[1]

    @property
    def vth_n(self) -> np.ndarray:
        """NMOS thresholds, shape ``(n_ros, n_stages)``."""
        return self.vth[:, :, NMOS]

    @property
    def vth_p(self) -> np.ndarray:
        """PMOS threshold magnitudes, shape ``(n_ros, n_stages)``."""
        return self.vth[:, :, PMOS]

    def with_delta(self, delta: np.ndarray) -> "Chip":
        """Return a new chip with ``delta`` (same shape as ``vth``) added.

        This is how aging is applied: the aging simulator computes a
        per-device threshold shift and the aged die is a fresh object.
        """
        delta = np.asarray(delta, dtype=float)
        if delta.shape != self.vth.shape:
            raise ValueError(
                f"delta shape {delta.shape} does not match vth shape {self.vth.shape}"
            )
        return Chip(
            vth=self.vth + delta,
            positions=self.positions,
            tc_scale=self.tc_scale,
            chip_id=self.chip_id,
        )


@dataclass
class ChipPopulation:
    """A Monte-Carlo population of chips from the same design/process.

    A population fabricated as one block (:meth:`from_block`) also keeps
    the stacked ``(n_chips, n_ros, n_stages, 2)`` tensors its chips are
    row views of, so batched consumers take them without a restack.
    """

    chips: List[Chip] = field(default_factory=list)
    vth: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    tc_scale: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_block(
        cls,
        vth: np.ndarray,
        tc_scale: np.ndarray,
        positions: np.ndarray,
        chip_ids: Optional[Sequence[int]] = None,
    ) -> "ChipPopulation":
        """Wrap stacked block tensors; chip ``i`` views row ``i``."""
        ids = range(len(vth)) if chip_ids is None else chip_ids
        chips = [
            Chip(vth=vth[i], positions=positions, tc_scale=tc_scale[i], chip_id=int(cid))
            for i, cid in enumerate(ids)
        ]
        return cls(chips=chips, vth=vth, tc_scale=tc_scale)

    def __len__(self) -> int:
        return len(self.chips)

    def __iter__(self) -> Iterator[Chip]:
        return iter(self.chips)

    def __getitem__(self, index: int) -> Chip:
        return self.chips[index]

    def stacked_vth(self) -> np.ndarray:
        """All thresholds stacked into ``(n_chips, n_ros, n_stages, 2)``."""
        if not self.chips:
            raise ValueError("population is empty")
        return np.stack([c.vth for c in self.chips])

    def map(self, fn) -> List:
        """Apply ``fn`` to every chip and return the list of results."""
        return [fn(chip) for chip in self.chips]


def grid_positions(n_ros: int) -> np.ndarray:
    """Row-major grid coordinates for ``n_ros`` oscillators.

    The grid is made as square as possible (``ceil(sqrt)`` columns); the
    coordinates are in RO-pitch units, matching the correlation length in
    :class:`repro.transistor.VariationParameters`.
    """
    if n_ros <= 0:
        raise ValueError("n_ros must be positive")
    cols = int(np.ceil(np.sqrt(n_ros)))
    idx = np.arange(n_ros)
    return np.column_stack([idx % cols, idx // cols]).astype(float)

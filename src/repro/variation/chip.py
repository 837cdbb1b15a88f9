"""Chip data model: per-transistor threshold voltages for an RO array.

* :class:`PopulationView` is the Monte-Carlo population: every chip's
  threshold and ``tc_scale`` samples stacked into
  ``(n_chips, n_ros, n_stages, 2)`` tensors, plus the RO grid they share.
  Fabrication returns it and the batched engine evaluates it as is.
* :class:`Chip` is one die of the per-chip reference path
  (:func:`~repro.core.factory.make_study`,
  :class:`~repro.core.base.RoPufInstance`): one threshold-voltage sample
  per transistor of every ring-oscillator stage, plus the grid position
  of each RO.  :meth:`PopulationView.chip` views one row as a chip.
  Aging produces *new* chips via :meth:`Chip.with_delta` — chips are
  treated as immutable so an experiment can hold the fresh and the aged
  view of the same die side by side.

Array layout
------------
A chip's ``vth`` has shape ``(n_ros, n_stages, 2)`` where the last axis
indexes the device polarity: ``NMOS = 0`` (drives falling output
transitions) and ``PMOS = 1`` (drives rising output transitions, and is
the NBTI victim).  A population's tensors put a chip axis in front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
        if not np.all(vth > 0):
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


class PopulationView:
    """A chip population stacked into contiguous evaluation tensors.

    The one stacked population type: :meth:`VariationModel.sample_population
    <repro.variation.process.VariationModel.sample_population>` returns it,
    and the batched engine (:mod:`repro.core.population`), the aging
    prefactor draw and the shard workers read its tensors directly.

    Parameters
    ----------
    vth:
        Threshold tensor, shape ``(n_chips, n_ros, n_stages, 2)``, volts.
    tc_scale:
        Stacked temperature-coefficient mismatch, same shape as ``vth``.
    positions:
        RO grid coordinates shared by every chip, shape ``(n_ros, 2)``.
    chip_ids:
        Monte-Carlo index of each row (defaults to ``0 .. n_chips - 1``).
    """

    def __init__(
        self,
        vth: np.ndarray,
        tc_scale: np.ndarray,
        positions: np.ndarray,
        chip_ids: Optional[Sequence[int]] = None,
    ):
        vth = np.asarray(vth, dtype=float)
        if vth.ndim != 4 or vth.shape[-1] != 2:
            raise ValueError(
                f"vth must have shape (n_chips, n_ros, n_stages, 2), got {vth.shape}"
            )
        if vth.shape[0] == 0:
            raise ValueError("population is empty")
        tc_scale = np.asarray(tc_scale, dtype=float)
        if tc_scale.shape != vth.shape:
            raise ValueError(
                f"tc_scale shape {tc_scale.shape} does not match vth {vth.shape}"
            )
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (vth.shape[1], 2):
            raise ValueError(
                f"positions must have shape ({vth.shape[1]}, 2), got {positions.shape}"
            )
        self.vth = vth
        self.tc_scale = tc_scale
        self.positions = positions
        self.chip_ids = (
            list(range(vth.shape[0])) if chip_ids is None else list(chip_ids)
        )
        if len(self.chip_ids) != vth.shape[0]:
            raise ValueError("chip_ids must name every chip row")

    @property
    def n_chips(self) -> int:
        return self.vth.shape[0]

    @property
    def n_ros(self) -> int:
        return self.vth.shape[1]

    @property
    def n_stages(self) -> int:
        return self.vth.shape[2]

    def chip(self, index: int) -> Chip:
        """Per-chip :class:`Chip` view of row ``index`` (no copy), for the
        per-chip reference path."""
        return Chip(
            vth=self.vth[index],
            positions=self.positions,
            tc_scale=self.tc_scale[index],
            chip_id=self.chip_ids[index],
        )


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

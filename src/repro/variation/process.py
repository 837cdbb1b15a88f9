"""Monte-Carlo process-variation sampler (the virtual fab).

:class:`VariationModel` turns a technology card plus an array geometry into
:class:`~repro.variation.chip.Chip` samples.  The threshold voltage of each
device decomposes hierarchically, matching the standard WID/D2D taxonomy
used in the RO-PUF literature:

    vth = vth_nominal
        + inter_die              (one draw per chip, common to all devices)
        + correlated(x, y)       (smooth chip-specific field, per RO)
        + white mismatch         (independent per device — the PUF entropy)
        + systematic(x, y)       (mask-set property, identical across chips)

The systematic term depends on the layout style: the ARO's symmetric cell
cancels it down to a small residual (see :mod:`repro.variation.spatial`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .._rng import RngLike, as_generator, spawn
from ..transistor.technology import TechnologyCard
from .chip import Chip, ChipPopulation, grid_positions
from .spatial import LayoutStyle, correlated_field_sampler, effective_systematic


@dataclass(frozen=True)
class VariationModel:
    """Samples chips for one design point.

    Parameters
    ----------
    tech:
        Technology card supplying nominal thresholds and sigma values.
    n_ros, n_stages:
        Geometry of the RO array (stages = inverting stages per ring).
    layout:
        Cell layout discipline; controls systematic-component cancellation.
    """

    tech: TechnologyCard
    n_ros: int
    n_stages: int
    layout: LayoutStyle = LayoutStyle.CONVENTIONAL

    def __post_init__(self) -> None:
        if self.n_ros < 2:
            raise ValueError("an RO-PUF needs at least two oscillators")
        if self.n_stages < 3 or self.n_stages % 2 == 0:
            raise ValueError("n_stages must be an odd integer >= 3 for oscillation")

    @cached_property
    def positions(self) -> np.ndarray:
        """RO grid coordinates shared by every chip (read-only)."""
        positions = grid_positions(self.n_ros)
        positions.flags.writeable = False
        return positions

    @cached_property
    def _systematic(self) -> np.ndarray:
        """The layout-dependent systematic offset of each RO (mask-set
        property, identical on every chip)."""
        var = self.tech.variation
        return effective_systematic(self.positions, var.sigma_systematic, self.layout)

    def fabricate_block(
        self,
        rngs: Sequence[RngLike],
        vth_out: np.ndarray,
        tc_out: Optional[np.ndarray] = None,
    ) -> None:
        """Fabricate one chip per entry of ``rngs`` into rows of the outputs.

        The one process fabricator: :meth:`sample_chip`,
        :meth:`sample_population`, the mmap store and the shard workers
        all call it.  ``rngs[i]`` (a generator or a spawn key) draws chip
        ``i`` in a fixed order — inter-die scalar, correlated-field
        normals, white mismatch, then the ``tc_scale`` mismatch — so a
        chip's bytes depend only on its own stream, never on the block it
        was fabricated in.  ``vth_out`` (and ``tc_out``, when the caller
        wants that column) have shape ``(len(rngs), n_ros, n_stages, 2)``.
        The grid, the systematic field and the correlated-field factor are
        built once per block, and the elementwise assembly runs over the
        whole block, in place, in several passes.  Omitting ``tc_out``
        skips its draw, the last one, which changes no other value.
        """
        n = len(rngs)
        shape = (n, self.n_ros, self.n_stages, 2)
        if vth_out.shape != shape or (tc_out is not None and tc_out.shape != shape):
            raise ValueError(f"block outputs must have shape {shape}")
        var = self.tech.variation
        # Split intra-die variance between a smooth correlated field and
        # white per-device mismatch, preserving total variance.
        corr_sigma = var.sigma_intra_die * np.sqrt(var.correlated_fraction)
        white_sigma = var.sigma_intra_die * np.sqrt(1.0 - var.correlated_fraction)
        draw_corr = correlated_field_sampler(
            self.positions, corr_sigma, var.correlation_length
        )
        inter_die = np.empty(n)
        per_ro = np.empty((n, self.n_ros))
        for i, rng in enumerate(rngs):
            gen = as_generator(rng)
            inter_die[i] = gen.standard_normal()
            per_ro[i] = draw_corr(gen)
            gen.standard_normal(out=vth_out[i])
            if tc_out is not None:
                gen.standard_normal(out=tc_out[i])

        # vth = nominal + ((inter_die + corr + systematic) + white), each
        # operation the same IEEE one per element as a single-chip draw
        inter_die *= var.sigma_inter_die
        per_ro += inter_die[:, None]
        per_ro += self._systematic
        vth_out *= white_sigma
        vth_out += per_ro[:, :, None, None]
        vth_out += np.array([self.tech.vth_n, self.tech.vth_p])
        if np.any(vth_out <= 0):
            raise ValueError("threshold magnitudes must be positive")
        if tc_out is not None:
            tc_out *= self.tech.tc_mismatch_cv
            tc_out += 1.0

    def sample_chip(self, rng: RngLike = None, chip_id: int = 0) -> Chip:
        """Draw one chip from the process distribution (a one-row
        :meth:`fabricate_block`)."""
        shape = (1, self.n_ros, self.n_stages, 2)
        vth, tc_scale = np.empty(shape), np.empty(shape)
        self.fabricate_block([as_generator(rng)], vth, tc_scale)
        return Chip(
            vth=vth[0], positions=self.positions, tc_scale=tc_scale[0], chip_id=chip_id
        )

    def sample_population(self, n_chips: int, rng: RngLike = None) -> ChipPopulation:
        """Draw ``n_chips`` independent chips as one block.

        Each chip gets its own spawned child generator so that adding chips
        to a population never perturbs the earlier chips' samples.  The
        chips are row views of the population's stacked tensors (see
        :meth:`ChipPopulation.from_block`).
        """
        if n_chips <= 0:
            raise ValueError("n_chips must be positive")
        shape = (n_chips, self.n_ros, self.n_stages, 2)
        vth, tc_scale = np.empty(shape), np.empty(shape)
        self.fabricate_block(spawn(rng, n_chips), vth, tc_scale)
        return ChipPopulation.from_block(vth, tc_scale, self.positions)

"""PUF design and instance abstractions.

A :class:`PufDesign` is everything that goes to the fab: the technology,
the oscillator cell, the array geometry, the layout discipline, the pairing
scheme and the readout datapath.  Instantiating a design against one
Monte-Carlo :class:`~repro.variation.chip.Chip` yields a
:class:`RoPufInstance` — the object experiments interrogate.

Aging composes naturally: age the chip (producing a new chip) and rebind it
with :meth:`RoPufInstance.with_chip`; the instance itself stays stateless.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .._rng import RngLike, as_generator
from ..circuit.cells import CellDescriptor
from ..circuit.delay import ring_frequency
from ..environment.conditions import OperatingConditions
from ..transistor.technology import TechnologyCard
from ..variation.chip import Chip
from ..variation.process import VariationModel
from ..variation.spatial import LayoutStyle
from .pairing import NeighborPairing, PairingScheme
from .readout import ReadoutConfig, read_population, voted_response


@dataclass(frozen=True)
class PufDesign:
    """One complete PUF design point (what the fab would receive)."""

    name: str
    tech: TechnologyCard
    cell: CellDescriptor
    n_ros: int
    layout: LayoutStyle
    pairing: PairingScheme = field(default_factory=NeighborPairing)
    readout: ReadoutConfig = field(default_factory=ReadoutConfig)

    def __post_init__(self) -> None:
        if self.n_ros < 2:
            raise ValueError("a design needs at least two oscillators")

    @property
    def n_stages(self) -> int:
        """Inverting stages per oscillator (from the cell descriptor)."""
        return self.cell.n_stages

    @property
    def n_bits(self) -> int:
        """Response width of one evaluation."""
        return self.pairing.n_bits(self.n_ros)

    def variation_model(self) -> VariationModel:
        """The Monte-Carlo sampler matching this design's geometry/layout."""
        return VariationModel(
            tech=self.tech,
            n_ros=self.n_ros,
            n_stages=self.n_stages,
            layout=self.layout,
        )

    def frequencies(
        self,
        vth: np.ndarray,
        tc_scale: np.ndarray,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """True mean frequency (Hz) of oscillators with thresholds ``vth``.

        ``vth`` and ``tc_scale`` are ``(..., n_ros, n_stages, 2)``; leading
        axes (a chip axis) are batch axes and the result is ``(...,
        n_ros)``.  Stacking chips gives each chip's frequencies in the
        same float64 words as its own call
        (``tests/property/test_draw_order_identities.py``).
        """
        cond = conditions or OperatingConditions.nominal()
        return ring_frequency(
            vth,
            self.tech,
            vdd=cond.effective_vdd(self.tech),
            temperature_k=cond.temperature_k,
            tc_scale=tc_scale,
            stage0_penalty=self.cell.stage0_penalty,
        ) / self.cell.c_load_factor

    def with_n_ros(self, n_ros: int) -> "PufDesign":
        """Resize the array (used by the key-generation design search)."""
        return replace(self, n_ros=n_ros)

    def instantiate(self, chip: Chip) -> "RoPufInstance":
        """Bind the design to one manufactured chip."""
        return RoPufInstance(design=self, chip=chip)

    def sample_instances(
        self, n_chips: int, rng: RngLike = None
    ) -> List["RoPufInstance"]:
        """Fabricate ``n_chips`` Monte-Carlo instances of this design."""
        population = self.variation_model().sample_population(n_chips, rng)
        return [self.instantiate(population.chip(i)) for i in range(n_chips)]

    def puf_area(self, n_ros: Optional[np.ndarray] = None):
        """PUF-block silicon area in square micrometres.

        Oscillator array plus readout: two counters, the pair-selection
        muxing (a 2x ``n_ros``:1 mux tree costs about one 2:1 mux per RO
        per side), and the comparator.

        ``n_ros`` (an integer array) prices this design at each of those
        array sizes instead, as a float64 array; every element takes the
        scalar formula's operations in the same order, so it equals
        ``with_n_ros(n).puf_area()`` bit for bit.
        """
        area = self.tech.area
        if n_ros is None:
            n_ros, mux_ros = self.n_ros, max(self.n_ros - 1, 1)
        else:
            mux_ros = np.maximum(n_ros - 1, 1)
        cells = n_ros * self.cell.cell_area(self.tech)
        counters = 2 * self.readout.counter_bits * area.counter_bit
        mux_tree = 2 * mux_ros * area.mux2
        comparator = self.readout.counter_bits * (area.xor2 + area.and2)
        return cells + counters + mux_tree + comparator


@dataclass(frozen=True)
class RoPufInstance:
    """One physical PUF: a design bound to a manufactured (or aged) chip."""

    design: PufDesign
    chip: Chip

    def __post_init__(self) -> None:
        if self.chip.n_stages != self.design.n_stages:
            raise ValueError(
                f"chip has {self.chip.n_stages} stages per RO, design wants "
                f"{self.design.n_stages}"
            )
        if self.chip.n_ros != self.design.n_ros:
            raise ValueError(
                f"chip has {self.chip.n_ros} ROs, design wants {self.design.n_ros}"
            )

    @property
    def chip_id(self) -> int:
        return self.chip.chip_id

    @property
    def n_bits(self) -> int:
        return self.design.n_bits

    def with_chip(self, chip: Chip) -> "RoPufInstance":
        """Rebind to another chip view (typically an aged one)."""
        return RoPufInstance(design=self.design, chip=chip)

    def frequencies(
        self, conditions: Optional[OperatingConditions] = None
    ) -> np.ndarray:
        """True mean frequency of every oscillator at the given corner (Hz)."""
        return self.design.frequencies(
            self.chip.vth, self.chip.tc_scale, conditions
        )

    def evaluate(
        self,
        challenge: Optional[int] = None,
        *,
        conditions: Optional[OperatingConditions] = None,
        noisy: bool = False,
        votes: int = 1,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Produce the response bits for ``challenge`` at a corner.

        Noiseless evaluation compares true frequencies (the idealised
        infinite-window measurement used as the aging-study reference);
        noisy evaluation runs the jittered counter datapath, optionally
        majority-voting over ``votes`` windows.  The one-challenge case of
        :meth:`evaluate_many`.
        """
        return self.evaluate_many(
            [challenge], conditions=conditions, noisy=noisy, votes=votes, rng=rng
        )[0]

    def evaluate_many(
        self,
        challenges: Sequence[Optional[int]],
        *,
        conditions: Optional[OperatingConditions] = None,
        noisy: bool = False,
        votes: int = 1,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Response bits for every challenge, shape ``(len(challenges), n_bits)``.

        The pairing hands over every challenge's pairs in one
        :meth:`~repro.core.pairing.PairingScheme.pairs_many` call, the
        chip's frequencies are computed once for the corner, and
        :func:`~repro.core.readout.read_population` reads them as a
        one-chip population with per-challenge tables.  So with a shared
        ``Generator`` the noisy draws are those of one :meth:`evaluate`
        call per challenge in order (oscillator ``a`` then ``b`` for each
        challenge; ``votes > 1`` spawns per challenge), and row ``i`` and
        the generator's final state match that loop bit for bit.  With
        ``rng=None``, an int or a ``SeedSequence`` the batch draws *one*
        stream from it, where separate calls would each restart it.
        """
        if len(challenges) == 0:
            raise ValueError("challenges is empty")
        if not noisy and votes != 1:
            raise ValueError("votes only applies to noisy evaluation")
        if votes < 1:
            raise ValueError("votes must be at least 1")
        design = self.design
        pairs = design.pairing.pairs_many(design.n_ros, challenges)
        freqs = self.frequencies(conditions)
        if votes == 1:
            return read_population(
                freqs[np.newaxis],
                pairs[np.newaxis],
                design.tech,
                design.readout,
                noisy=noisy,
                rng=rng,
            )[0]
        gen = as_generator(rng)
        return np.stack(
            [
                voted_response(
                    freqs, p, design.tech, design.readout, votes=votes, rng=gen
                )
                for p in pairs
            ]
        )

    def golden_response(self, challenge: Optional[int] = None) -> np.ndarray:
        """The enrolment-time reference response (noiseless, nominal)."""
        return self.evaluate(challenge, conditions=OperatingConditions.nominal())


"""Aging orchestration: from a fresh chip to its aged views over time.

:class:`AgingSimulator` binds a technology, an oscillator cell design and a
mission profile.  For each chip it samples the per-device aging prefactors
*once* (they are physical properties of the individual devices) and hands
back a :class:`ChipAging` that can produce a consistent aged
:class:`~repro.variation.chip.Chip` at any point of the mission — the
degradation trajectory of every device is monotone and self-consistent
across time points, which is what lets experiments sweep 0.5 .. 10 years
and get smooth bit-flip curves.

:class:`PopulationAging` is the batched companion: one object holding the
prefactors of a whole population as ``(n_chips, n_ros, n_stages, 2)``
tensors, evaluating the threshold-shift field of every chip in a single
vectorised pass per time point.  Its deltas are bit-identical to the
per-chip :meth:`ChipAging.delta` under the same sampled prefactors.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import telemetry
from .._rng import RngLike, as_generator, spawn
from ..circuit.cells import CellDescriptor
from ..transistor.technology import TechnologyCard
from ..variation.chip import NMOS, PMOS, Chip, ChipPopulation
from . import hci, nbti
from .schedule import IdlePolicy, MissionProfile
from .stress import StressProfile, compute_stress


@dataclass(frozen=True)
class ChipAging:
    """The aging trajectory of one chip (prefactors frozen at creation)."""

    chip: Chip
    tech: TechnologyCard
    stress: StressProfile
    mission: MissionProfile
    nbti_a: np.ndarray
    hci_b: np.ndarray

    def delta(self, t_years: float) -> np.ndarray:
        """Per-device threshold shift after ``t_years`` (volts).

        Shape matches ``chip.vth``: ``(n_ros, n_stages, 2)``.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        shape = self.chip.vth.shape
        delta = np.zeros(shape)
        temp = self.mission.temperature_k
        params = self.tech.nbti

        # PMOS: NBTI (dominant) + a reduced HCI share
        delta[:, :, PMOS] += nbti.bti_shift(
            self.stress.nbti_duty[None, :, PMOS],
            t_years,
            params,
            prefactor=self.nbti_a[:, :, PMOS],
            temperature_k=temp,
        )
        delta[:, :, PMOS] += hci.hci_shift(
            self.stress.transitions_per_year[None, :, PMOS] * t_years,
            self.tech.hci,
            prefactor=self.hci_b[:, :, PMOS],
            pmos=True,
        )

        # NMOS: PBTI (weak) + full HCI
        delta[:, :, NMOS] += nbti.bti_shift(
            self.stress.pbti_duty[None, :, NMOS],
            t_years,
            params,
            prefactor=self.nbti_a[:, :, NMOS],
            temperature_k=temp,
            pbti=True,
        )
        delta[:, :, NMOS] += hci.hci_shift(
            self.stress.transitions_per_year[None, :, NMOS] * t_years,
            self.tech.hci,
            prefactor=self.hci_b[:, :, NMOS],
            pmos=False,
        )
        return delta

    def aged(self, t_years: float) -> Chip:
        """The chip as manufactured plus ``t_years`` of field aging."""
        if t_years == 0:
            return self.chip
        return self.chip.with_delta(self.delta(t_years))

    def mean_frequency_degradation(self, t_years: float) -> float:
        """Population-mean fractional frequency loss at ``t_years``.

        A cheap first-order figure (delay-sensitivity-weighted mean Vth
        shift) used for quick reporting; experiments that need the real
        number recompute frequencies through the delay model.
        """
        from ..transistor.mosfet import delay_sensitivity

        sens = delay_sensitivity(self.tech)
        d = self.delta(t_years)
        # each of the 2*n_stages transition components carries equal weight
        return float(np.mean(np.sum(d, axis=(1, 2)) * sens / (2 * self.chip.n_stages)))


class AgingSimulator:
    """Builds :class:`ChipAging` trajectories for a fixed design point."""

    def __init__(
        self,
        tech: TechnologyCard,
        cell: CellDescriptor,
        mission: Optional[MissionProfile] = None,
        idle_policy: Optional[IdlePolicy] = None,
    ):
        self.tech = tech
        self.cell = cell
        self.mission = mission or MissionProfile()
        self.idle_policy = idle_policy
        self.stress = compute_stress(cell, self.mission, idle_policy)

    def for_chip(self, chip: Chip, rng: RngLike = None) -> ChipAging:
        """Sample the chip's device prefactors and return its trajectory."""
        if chip.n_stages != self.cell.n_stages:
            raise ValueError(
                f"chip has {chip.n_stages} stages but the cell expects "
                f"{self.cell.n_stages}"
            )
        shape = (1,) + chip.vth.shape
        nbti_a, hci_b = np.empty(shape), np.empty(shape)
        self.fabricate_block([as_generator(rng)], nbti_a, hci_b)
        return ChipAging(
            chip=chip,
            tech=self.tech,
            stress=self.stress,
            mission=self.mission,
            nbti_a=nbti_a[0],
            hci_b=hci_b[0],
        )

    def for_population(
        self, population: ChipPopulation, rng: RngLike = None
    ) -> list:
        """Trajectories for every chip (independent child RNG per chip)."""
        children = spawn(rng, len(population))
        return [
            self.for_chip(chip, child)
            for chip, child in zip(population, children)
        ]

    def fabricate_block(
        self,
        rngs: Sequence[RngLike],
        nbti_out: np.ndarray,
        hci_out: np.ndarray,
    ) -> None:
        """Sample one chip's device prefactors per entry of ``rngs``.

        The one prefactor fabricator: :meth:`for_chip` (a one-row
        block), :meth:`PopulationAging.sample`, the mmap store and the
        shard workers all fill their ``(len(rngs), n_ros, n_stages, 2)``
        tensors through it.  ``rngs[i]`` (a generator or a spawn key)
        draws chip ``i``'s NBTI prefactors, then its HCI prefactors.
        """
        if nbti_out.shape != hci_out.shape or len(nbti_out) != len(rngs):
            raise ValueError(
                f"need one row per stream in equal-shape outputs, got "
                f"{len(rngs)} streams, {nbti_out.shape} and {hci_out.shape}"
            )
        shape = nbti_out.shape[1:]
        for i, rng in enumerate(rngs):
            gen = as_generator(rng)
            nbti_out[i] = nbti.sample_prefactors(shape, self.tech.nbti, gen)
            hci_out[i] = hci.sample_prefactors(shape, self.tech.hci, gen)

    def population_aging(
        self, population: ChipPopulation, rng: RngLike = None
    ) -> "PopulationAging":
        """Batched trajectory of the whole population (see
        :class:`PopulationAging`).  Consumes the RNG exactly like
        :meth:`for_population`, so the same seed yields the same prefactors
        on both paths.
        """
        return PopulationAging.sample(self, population, rng)


class CoefficientFold:
    """The time-independent factors of the aging closed form, folded once.

    :meth:`ChipAging.delta` computes, per element,

        ((scale * a) * k_T) * (duty * t) ** n          (BTI)
        (scale * b) * ((tpy * t) / N_ref) ** m         (HCI)

    with the polarity ``scale`` (1 or ``pbti_factor`` for BTI,
    ``PMOS_HCI_FACTOR`` or 1 for HCI) and the Arrhenius factor ``k_T``.
    :meth:`bti_coeff` / :meth:`hci_coeff` fold the prefactors with those
    in exactly that grouping, and :meth:`bti_dir` / :meth:`hci_dir` fold
    the mission's duty/transition powers on top — the form the hot
    frequency path multiplies by a scalar power of ``t``.  Both
    :class:`PopulationAging` and the mmap store fold through one
    instance of this class, so their tensors are bit-identical.

    ``duty`` / ``tpy`` are the per-device stress on a ``(1, 1, n_stages,
    2)`` layout that broadcasts against the population tensor: PMOS rows
    take the NBTI duty, NMOS rows the PBTI duty.
    """

    def __init__(
        self, tech: TechnologyCard, stress: StressProfile, mission: MissionProfile
    ):
        self.tech = tech
        self.k_t = nbti.temperature_acceleration(mission.temperature_k, tech.nbti)
        n_stages = stress.n_stages
        duty = np.empty((1, 1, n_stages, 2))
        duty[0, 0, :, PMOS] = stress.nbti_duty[:, PMOS]
        duty[0, 0, :, NMOS] = stress.pbti_duty[:, NMOS]
        tpy = np.empty((1, 1, n_stages, 2))
        tpy[0, 0, :, PMOS] = stress.transitions_per_year[:, PMOS]
        tpy[0, 0, :, NMOS] = stress.transitions_per_year[:, NMOS]
        self.duty = duty
        self.tpy = tpy
        self.duty_pow = duty ** tech.nbti.n
        self.tpy_pow = (tpy / tech.hci.ref_transitions) ** tech.hci.m

    def bti_coeff(self, nbti_a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``(scale * a) * k_T`` into ``out`` (which may alias ``nbti_a``)."""
        out[..., PMOS] = (1.0 * nbti_a[..., PMOS]) * self.k_t
        out[..., NMOS] = (self.tech.nbti.pbti_factor * nbti_a[..., NMOS]) * self.k_t
        return out

    def hci_coeff(self, hci_b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``scale * b`` into ``out`` (which may alias ``hci_b``)."""
        out[..., PMOS] = hci.PMOS_HCI_FACTOR * hci_b[..., PMOS]
        out[..., NMOS] = 1.0 * hci_b[..., NMOS]
        return out

    def bti_dir(self, bti_coeff: np.ndarray, out: Optional[np.ndarray] = None):
        """The BTI coefficients times the duty powers ``duty ** n``."""
        return np.multiply(bti_coeff, self.duty_pow, out=out)

    def hci_dir(self, hci_coeff: np.ndarray, out: Optional[np.ndarray] = None):
        """The HCI coefficients times ``(tpy / N_ref) ** m``."""
        return np.multiply(hci_coeff, self.tpy_pow, out=out)


class PopulationAging:
    """Vectorised aging trajectories of a whole chip population.

    Where :class:`ChipAging` evaluates the NBTI/HCI closed form for one
    chip per call, this class stacks every chip's per-device prefactors
    into ``(n_chips, n_ros, n_stages, 2)`` tensors and evaluates the
    threshold-shift field of the *entire population* in one numpy pass
    per time point.

    The time-independent pieces of the closed form — the duty factors, the
    Arrhenius temperature acceleration and the prefactor products — are
    folded into two coefficient tensors at construction, so each
    :meth:`delta` call only evaluates the ``t``-dependent power laws (tiny
    ``(n_stages, 2)`` arrays) and two broadcast multiply/clip chains over
    the population tensor.  The per-element operation grouping matches
    :meth:`ChipAging.delta` exactly, so deltas are **bit-identical** to
    the per-chip path.

    Repeated queries at the same time point (golden responses, metric
    re-use) hit an LRU memo; memoised arrays are returned read-only.
    """

    #: number of distinct time points kept in the delta memo
    MEMO_SIZE = 16

    def __init__(
        self,
        tech: TechnologyCard,
        stress: StressProfile,
        mission: MissionProfile,
        nbti_a: np.ndarray,
        hci_b: np.ndarray,
    ):
        nbti_a = np.asarray(nbti_a, dtype=float)
        hci_b = np.asarray(hci_b, dtype=float)
        if nbti_a.ndim != 4 or nbti_a.shape[-1] != 2:
            raise ValueError(
                "nbti_a must have shape (n_chips, n_ros, n_stages, 2), "
                f"got {nbti_a.shape}"
            )
        if hci_b.shape != nbti_a.shape:
            raise ValueError(
                f"hci_b shape {hci_b.shape} does not match nbti_a {nbti_a.shape}"
            )
        if nbti_a.shape[2] != stress.n_stages:
            raise ValueError(
                f"prefactors carry {nbti_a.shape[2]} stages but the stress "
                f"profile has {stress.n_stages}"
            )
        self.tech = tech
        self.stress = stress
        self.mission = mission
        self.nbti_a = nbti_a
        self.hci_b = hci_b

        # ---- time-independent factors, folded once -------------------
        # in ChipAging.delta's exact grouping (see CoefficientFold), so
        # the batched delta is bit-identical to the per-chip one
        fold = CoefficientFold(tech, stress, mission)
        self._bti_coeff = fold.bti_coeff(nbti_a, np.empty_like(nbti_a))
        self._hci_coeff = fold.hci_coeff(hci_b, np.empty_like(hci_b))
        self._duty = fold.duty
        self._tpy = fold.tpy
        # per-(stage, polarity) coefficient maxima: lets delta evaluation
        # prove a clip is a no-op from a 10-element check and skip the
        # population-sized minimum pass (bitwise identical either way)
        self._bti_max = self._bti_coeff.max(axis=(0, 1))
        self._hci_max = self._hci_coeff.max(axis=(0, 1))
        # fully-factored stress directions for the frequency path:
        #   delta(t) = t**n * bti_dir + t**m * hci_dir   (clips aside)
        # pulling the duty/transition powers out of the time loop.  This
        # regroups the closed form (ULP-level drift), so only
        # subtract_delta_into uses it — delta() keeps the exact grouping.
        self._bti_dir = fold.bti_dir(self._bti_coeff)
        self._hci_dir = fold.hci_dir(self._hci_coeff)
        self._bti_dir_max = float(self._bti_dir.max())
        self._hci_dir_max = float(self._hci_dir.max())
        self._memo: "OrderedDict[float, np.ndarray]" = OrderedDict()

    # ---- construction ------------------------------------------------

    @classmethod
    def sample(
        cls,
        simulator: AgingSimulator,
        population: ChipPopulation,
        rng: RngLike = None,
        *,
        children: Optional[Sequence[RngLike]] = None,
    ) -> "PopulationAging":
        """Sample every chip's prefactors into one stacked tensor.

        Mirrors :meth:`AgingSimulator.for_population` draw for draw (one
        spawned child generator per chip, NBTI before HCI, through
        :meth:`AgingSimulator.fabricate_block`), so the same seed produces
        the same device prefactors on both paths.

        ``children`` bypasses the spawn and supplies one pre-derived
        generator (or spawn key) per chip — the parallel engine's shard
        workers use this so a shard consumes exactly the child streams the
        serial path would have handed its chips.
        """
        chips = list(population)
        if not chips:
            raise ValueError("population is empty")
        shape = chips[0].vth.shape
        for chip in chips:
            if chip.n_stages != simulator.cell.n_stages:
                raise ValueError(
                    f"chip has {chip.n_stages} stages but the cell expects "
                    f"{simulator.cell.n_stages}"
                )
            if chip.vth.shape != shape:
                raise ValueError(
                    f"chip geometry {chip.vth.shape} differs from {shape}"
                )
        if children is None:
            children = spawn(rng, len(chips))
        elif len(children) != len(chips):
            raise ValueError(
                f"got {len(children)} child streams for {len(chips)} chips"
            )
        nbti_a = np.empty((len(chips),) + shape)
        hci_b = np.empty_like(nbti_a)
        with telemetry.span("aging.sample_prefactors", n_chips=len(chips)):
            simulator.fabricate_block(children, nbti_a, hci_b)
            telemetry.progress("aging.sample_prefactors", len(chips), len(chips))
        return cls(
            tech=simulator.tech,
            stress=simulator.stress,
            mission=simulator.mission,
            nbti_a=nbti_a,
            hci_b=hci_b,
        )

    @classmethod
    def from_agings(cls, agings: Sequence[ChipAging]) -> "PopulationAging":
        """Stack existing per-chip trajectories (they must share one
        simulator, i.e. one technology/stress/mission)."""
        agings = list(agings)
        if not agings:
            raise ValueError("need at least one ChipAging")
        first = agings[0]
        return cls(
            tech=first.tech,
            stress=first.stress,
            mission=first.mission,
            nbti_a=np.stack([a.nbti_a for a in agings]),
            hci_b=np.stack([a.hci_b for a in agings]),
        )

    # ---- geometry ----------------------------------------------------

    @property
    def n_chips(self) -> int:
        return self.nbti_a.shape[0]

    @property
    def n_ros(self) -> int:
        return self.nbti_a.shape[1]

    @property
    def n_stages(self) -> int:
        return self.nbti_a.shape[2]

    # ---- evaluation --------------------------------------------------

    def delta(self, t_years: float) -> np.ndarray:
        """Population threshold-shift field after ``t_years`` (volts).

        Shape ``(n_chips, n_ros, n_stages, 2)``; row ``i`` is bit-identical
        to ``ChipAging.delta(t_years)`` of chip ``i``.  The returned array
        is memoised and read-only — copy before mutating.
        """
        t = float(t_years)
        cached = self._memo.get(t)
        if cached is not None:
            self._memo.move_to_end(t)
            telemetry.count("aging.delta_memo_hits")
            return cached
        telemetry.count("aging.delta_memo_misses")

        delta = self.delta_into(t, np.empty_like(self.nbti_a))
        delta.flags.writeable = False
        self._memo[t] = delta
        if len(self._memo) > self.MEMO_SIZE:
            self._memo.popitem(last=False)
        return delta

    def delta_into(self, t_years: float, out: np.ndarray) -> np.ndarray:
        """:meth:`delta` evaluated into a caller-owned buffer (no memo).

        The hot loop of a year sweep calls this with one persistent buffer
        so that no population-sized array is allocated (and page-faulted)
        per grid point.  Returns ``out``.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        t = float(t_years)
        sp = telemetry.start_span(
            "aging.delta", t_years=t, n_chips=self.n_chips
        )
        # t-dependent power laws on the tiny (1, 1, n_stages, 2) stress
        # arrays; everything population-sized below is multiply/clip/add.
        pow_bti = np.power(self._duty * t, self.tech.nbti.n)
        pow_hci = np.power(
            (self._tpy * t) / self.tech.hci.ref_transitions, self.tech.hci.m
        )
        np.multiply(self._bti_coeff, pow_bti, out=out)
        if (self._bti_max * pow_bti[0, 0] > self.tech.nbti.max_shift).any():
            telemetry.count("aging.clip_applied")
            np.minimum(out, self.tech.nbti.max_shift, out=out)
        else:
            telemetry.count("aging.clip_skipped")
        hci_part = self._hci_coeff * pow_hci
        if (self._hci_max * pow_hci[0, 0] > self.tech.hci.max_shift).any():
            telemetry.count("aging.clip_applied")
            np.minimum(hci_part, self.tech.hci.max_shift, out=hci_part)
        else:
            telemetry.count("aging.clip_skipped")
        np.add(out, hci_part, out=out)
        telemetry.end_span(sp)
        return out

    def _component_terms(self, t: float, mechanism: str) -> tuple:
        """``(coeff, pow_mech, clip, cap)`` of one mechanism at ``t``.

        ``pow_mech`` is the tiny ``(1, 1, n_stages, 2)`` time power-law
        array, ``clip`` the population-wide decision whether the
        saturation cap is reachable (proved from the per-stage maxima, so
        skipping the clip pass is bitwise identical to applying it).
        The expressions match :meth:`delta_into` operation for operation.
        """
        if mechanism == "bti":
            pow_mech = np.power(self._duty * t, self.tech.nbti.n)
            cap = self.tech.nbti.max_shift
            clip = bool((self._bti_max * pow_mech[0, 0] > cap).any())
            return self._bti_coeff, pow_mech, clip, cap
        if mechanism == "hci":
            pow_mech = np.power(
                (self._tpy * t) / self.tech.hci.ref_transitions,
                self.tech.hci.m,
            )
            cap = self.tech.hci.max_shift
            clip = bool((self._hci_max * pow_mech[0, 0] > cap).any())
            return self._hci_coeff, pow_mech, clip, cap
        raise ValueError(f"mechanism must be 'bti' or 'hci', got {mechanism!r}")

    def delta_component(
        self,
        t_years: float,
        mechanism: str,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One mechanism's shift field at ``t_years`` (exact grouping).

        ``out`` lets callers reuse a population-sized buffer across
        captures instead of allocating a fresh tensor per call; it must
        match the prefactor tensor's shape and dtype.  Values are
        bit-identical to the corresponding half of
        :meth:`delta_components`.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        coeff, pow_mech, clip, cap = self._component_terms(
            float(t_years), mechanism
        )
        if out is None:
            out = np.empty_like(coeff)
        np.multiply(coeff, pow_mech, out=out)
        if clip:
            np.minimum(out, cap, out=out)
        return out

    def delta_components(self, t_years: float) -> tuple:
        """Per-mechanism split of :meth:`delta`: ``(bti, hci)`` fields.

        Each has the population tensor shape ``(n_chips, n_ros, n_stages,
        2)``.  The grouping, clip decisions and final add mirror
        :meth:`delta_into` operation for operation, so ``bti + hci`` is
        *bit-identical* to ``delta(t_years)`` — the forensics layer relies
        on that to attribute a margin shift to NBTI/PBTI vs HCI without
        introducing a reconciliation residual of its own.  Not memoised:
        attribution calls this once per report, never in a sweep loop.
        Callers that need only one mechanism (the blocked
        counterfactual-frequency path) use :meth:`delta_component` or
        :meth:`component_subtracter` instead and skip the second
        population-sized tensor entirely.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        t = float(t_years)
        telemetry.count("aging.mechanism_splits")
        return (
            self.delta_component(t, "bti"),
            self.delta_component(t, "hci"),
        )

    def component_subtracter(self, t_years: float, mechanism: str):
        """A per-block ``od -= delta_component(t_years, mechanism)[rows]``.

        The blocked counterfactual-frequency path subtracts one
        mechanism's field block by block through this closure instead of
        materialising the full :meth:`delta_components` pair — same
        coefficient grouping, same population-wide clip decision, so the
        result is bit-identical to the full-tensor subtraction while
        allocating nothing population-sized.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        coeff, pow_mech, clip, cap = self._component_terms(
            float(t_years), mechanism
        )

        def subtract(od, scratch, rows):
            np.multiply(coeff[rows], pow_mech, out=scratch)
            if clip:
                np.minimum(scratch, cap, out=scratch)
            od -= scratch

        return subtract

    def cached_delta(self, t_years: float) -> Optional[np.ndarray]:
        """The memoised delta for ``t_years`` if one exists, else None."""
        return self._memo.get(float(t_years))

    def subtract_delta_into(
        self,
        t_years: float,
        od: np.ndarray,
        scratch: np.ndarray,
        rows: slice = slice(None),
    ) -> np.ndarray:
        """``od -= delta(t_years)[rows]`` with the fewest memory passes.

        The hot kernel of the batched frequency sweep.  The BTI and HCI
        terms are subtracted separately from factored direction tensors
        (one scalar multiply + one subtract each), which regroups the
        closed form relative to :meth:`delta` — results differ from
        subtracting :meth:`delta` only in the last few ULPs, so callers
        that need the bit-exact per-chip grouping use :meth:`delta`
        instead.  Clips are applied exactly: a cheap maximum check proves
        when the population cannot reach the cap and the clip pass is
        skipped.

        ``rows`` selects a chip-axis block, letting the caller chunk the
        evaluation so the work buffers stay cache-resident.
        """
        if t_years < 0:
            raise ValueError("t_years must be non-negative")
        t = float(t_years)
        telemetry.count("aging.subtract_blocks")
        # Factored closed form: delta(t) = t**n * bti_dir + t**m * hci_dir
        # (clips aside), so the hot loop pays two *scalar* broadcasts
        # instead of two (n_stages, 2) broadcasts — measurably cheaper.
        bti_t = t ** self.tech.nbti.n
        hci_t = t ** self.tech.hci.m
        np.multiply(self._bti_dir[rows], bti_t, out=scratch)
        if self._bti_dir_max * bti_t > self.tech.nbti.max_shift:
            telemetry.count("aging.clip_applied")
            np.minimum(scratch, self.tech.nbti.max_shift, out=scratch)
        else:
            telemetry.count("aging.clip_skipped")
        od -= scratch
        np.multiply(self._hci_dir[rows], hci_t, out=scratch)
        if self._hci_dir_max * hci_t > self.tech.hci.max_shift:
            telemetry.count("aging.clip_applied")
            np.minimum(scratch, self.tech.hci.max_shift, out=scratch)
        else:
            telemetry.count("aging.clip_skipped")
        od -= scratch
        return od

    def delta_grid(self, years: Sequence[float]) -> np.ndarray:
        """Deltas over a full year grid, shape
        ``(len(years), n_chips, n_ros, n_stages, 2)``."""
        return np.stack([self.delta(t) for t in years])

    def chip_aging(self, index: int, chip: Chip) -> ChipAging:
        """Per-chip :class:`ChipAging` view of row ``index`` (thin slice,
        no re-sampling) bound to ``chip``."""
        return ChipAging(
            chip=chip,
            tech=self.tech,
            stress=self.stress,
            mission=self.mission,
            nbti_a=self.nbti_a[index],
            hci_b=self.hci_b[index],
        )

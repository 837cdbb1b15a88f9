"""Aging orchestration: from fresh silicon to its aged views over time.

:class:`AgingSimulator` binds a technology, an oscillator cell design and a
mission profile.  It samples per-device aging prefactors *once* (they are
physical properties of the individual devices) and evaluates a consistent
threshold shift at any point of the mission — the degradation trajectory
of every device is monotone and self-consistent across time points, which
is what lets experiments sweep 0.5 .. 10 years and get smooth bit-flip
curves.

* :class:`PopulationAging` (:meth:`AgingSimulator.population_aging`) is the
  engine's form: the prefactors of a whole
  :class:`~repro.variation.chip.PopulationView` as ``(n_chips, n_ros,
  n_stages, 2)`` tensors, evaluating the threshold-shift field of every
  chip in a single vectorised pass per time point.
* :class:`ChipAging` (:meth:`AgingSimulator.for_chip`) is the per-chip
  reference: one chip's prefactors, producing an aged
  :class:`~repro.variation.chip.Chip`.  Under the same seed both draw the
  same prefactors, and :meth:`PopulationAging.delta` row ``i`` is
  bit-identical to chip ``i``'s :meth:`ChipAging.delta`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .. import telemetry
from .._rng import RngLike, as_generator, as_generators, spawn
from ..circuit.cells import CellDescriptor
from ..transistor.technology import TechnologyCard
from ..variation.chip import NMOS, PMOS, Chip, PopulationView
from . import hci, nbti
from .schedule import IdlePolicy, MissionProfile, check_years
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
        check_years(t_years)
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
        tensors through it.  ``rngs[i]`` (a generator or a spawn key; the
        keys of a block are seeded together,
        :func:`~repro._rng.as_generators`) draws chip ``i``'s NBTI
        prefactors, then its HCI prefactors.
        """
        if nbti_out.shape != hci_out.shape or len(nbti_out) != len(rngs):
            raise ValueError(
                f"need one row per stream in equal-shape outputs, got "
                f"{len(rngs)} streams, {nbti_out.shape} and {hci_out.shape}"
            )
        shape = nbti_out.shape[1:]
        for i, gen in enumerate(as_generators(rngs)):
            nbti_out[i] = nbti.sample_prefactors(shape, self.tech.nbti, gen)
            hci_out[i] = hci.sample_prefactors(shape, self.tech.hci, gen)

    def population_aging(
        self, population: PopulationView, rng: RngLike = None
    ) -> "PopulationAging":
        """Batched trajectory of the whole population (see
        :class:`PopulationAging`).  Spawns one child of ``rng`` per chip,
        as :func:`~repro.core.factory.make_study` hands to
        :meth:`for_chip`, so the same seed yields the same prefactors on
        both paths.
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
    instance of this class, so their tensors are bit-identical, and
    :meth:`subtracter` is the one place either source's folded columns
    are turned into a threshold shift on the frequency path.

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

    def subtracter(
        self,
        column: Callable[[str], np.ndarray],
        t: float,
        mechanism: Optional[str],
        maxima: Dict[str, tuple],
    ):
        """``(subtract(od, scratch, lo, hi), columns)``: one aging pass at ``t``.

        The frequency engine's one aging subtraction, for any column
        source: ``subtract`` does ``od -= delta(t)[lo:hi]`` in place from
        the folded columns ``column(name)`` returns (``columns`` names
        them), ``scratch`` being a work buffer of ``od``'s shape.

        The golden pass (``mechanism=None``) subtracts ``dir * t**n``, then
        ``dir * t**m``, each clipped at its saturation cap — a regrouping
        of :meth:`PopulationAging.delta` (ULP-level drift), the same on
        every source.  A clip is skipped when the block's column maximum
        proves it a no-op: IEEE rounding is monotone, so ``max(x) * t**n
        <= cap`` means every ``x * t**n <= cap`` and skipping cannot
        change a byte.  ``maxima`` remembers each column's maximum of the
        last block asked; one dict per stream lets a sweep's years share
        it.  A mechanism pass (``"bti"`` or ``"hci"``) subtracts that
        mechanism alone in :meth:`ChipAging.delta`'s exact grouping,
        ``coeff * (duty * t)**n``, always clipped.
        """
        tech = self.tech
        if mechanism is None:
            terms = [
                (name, column(name), scale, cap)
                for name, scale, cap in (
                    ("bti_dir", t ** tech.nbti.n, tech.nbti.max_shift),
                    ("hci_dir", t ** tech.hci.m, tech.hci.max_shift),
                )
            ]

            def subtract(od, scratch, lo, hi):
                telemetry.count("aging.subtract_blocks")
                for name, col, scale, cap in terms:
                    rows = col[lo:hi]
                    np.multiply(rows, scale, out=scratch)
                    if maxima.get(name, (None,))[0] != lo:
                        maxima[name] = (lo, float(rows.max()))
                    if maxima[name][1] * scale > cap:
                        telemetry.count("aging.clip_applied")
                        np.minimum(scratch, cap, out=scratch)
                    else:
                        telemetry.count("aging.clip_skipped")
                    od -= scratch

            return subtract, ("bti_dir", "hci_dir")
        if mechanism == "bti":
            pow_mech = np.power(self.duty * t, tech.nbti.n)
            cap = tech.nbti.max_shift
        elif mechanism == "hci":
            pow_mech = np.power((self.tpy * t) / tech.hci.ref_transitions, tech.hci.m)
            cap = tech.hci.max_shift
        else:
            raise ValueError(f"mechanism must be 'bti' or 'hci', got {mechanism!r}")
        name = f"{mechanism}_coeff"
        coeff = column(name)

        def subtract(od, scratch, lo, hi):
            np.multiply(coeff[lo:hi], pow_mech, out=scratch)
            np.minimum(scratch, cap, out=scratch)
            od -= scratch

        return subtract, (name,)


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
        self.fold = fold = CoefficientFold(tech, stress, mission)
        self.bti_coeff = fold.bti_coeff(nbti_a, np.empty_like(nbti_a))
        self.hci_coeff = fold.hci_coeff(hci_b, np.empty_like(hci_b))
        # per-(stage, polarity) coefficient maxima: lets delta evaluation
        # prove a clip is a no-op from a 10-element check and skip the
        # population-sized minimum pass (bitwise identical either way)
        self._bti_max = self.bti_coeff.max(axis=(0, 1))
        self._hci_max = self.hci_coeff.max(axis=(0, 1))
        # the duty-folded directions the frequency path subtracts
        # (CoefficientFold.subtracter); delta() keeps the exact grouping
        self.bti_dir = fold.bti_dir(self.bti_coeff)
        self.hci_dir = fold.hci_dir(self.hci_coeff)
        self._memo: "OrderedDict[float, np.ndarray]" = OrderedDict()

    # ---- construction ------------------------------------------------

    @classmethod
    def sample(
        cls,
        simulator: AgingSimulator,
        population: PopulationView,
        rng: RngLike = None,
        *,
        children: Optional[Sequence[RngLike]] = None,
    ) -> "PopulationAging":
        """Sample every chip's prefactors into one stacked tensor.

        Draws like the per-chip path (one spawned child generator per
        chip, NBTI before HCI, through
        :meth:`AgingSimulator.fabricate_block`), so the same seed produces
        the same device prefactors as :meth:`AgingSimulator.for_chip` on
        each chip.

        ``children`` bypasses the spawn and supplies one pre-derived
        generator (or spawn key) per chip — the parallel engine's shard
        workers use this so a shard consumes exactly the child streams the
        serial path would have handed its chips.
        """
        if population.n_stages != simulator.cell.n_stages:
            raise ValueError(
                f"population has {population.n_stages} stages but the cell "
                f"expects {simulator.cell.n_stages}"
            )
        n_chips = population.n_chips
        if children is None:
            children = spawn(rng, n_chips)
        elif len(children) != n_chips:
            raise ValueError(
                f"got {len(children)} child streams for {n_chips} chips"
            )
        nbti_a = np.empty(population.vth.shape)
        hci_b = np.empty_like(nbti_a)
        with telemetry.span("aging.sample_prefactors", n_chips=n_chips):
            simulator.fabricate_block(children, nbti_a, hci_b)
            telemetry.progress("aging.sample_prefactors", n_chips, n_chips)
        return cls(
            tech=simulator.tech,
            stress=simulator.stress,
            mission=simulator.mission,
            nbti_a=nbti_a,
            hci_b=hci_b,
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
        t = check_years(t_years)
        sp = telemetry.start_span(
            "aging.delta", t_years=t, n_chips=self.n_chips
        )
        # t-dependent power laws on the tiny (1, 1, n_stages, 2) stress
        # arrays; everything population-sized below is multiply/clip/add.
        pow_bti = np.power(self.fold.duty * t, self.tech.nbti.n)
        pow_hci = np.power(
            (self.fold.tpy * t) / self.tech.hci.ref_transitions, self.tech.hci.m
        )
        np.multiply(self.bti_coeff, pow_bti, out=out)
        if (self._bti_max * pow_bti[0, 0] > self.tech.nbti.max_shift).any():
            telemetry.count("aging.clip_applied")
            np.minimum(out, self.tech.nbti.max_shift, out=out)
        else:
            telemetry.count("aging.clip_skipped")
        hci_part = self.hci_coeff * pow_hci
        if (self._hci_max * pow_hci[0, 0] > self.tech.hci.max_shift).any():
            telemetry.count("aging.clip_applied")
            np.minimum(hci_part, self.tech.hci.max_shift, out=hci_part)
        else:
            telemetry.count("aging.clip_skipped")
        np.add(out, hci_part, out=out)
        telemetry.end_span(sp)
        return out

"""Threshold-based device authentication over a CRP table.

The standard lightweight PUF authentication protocol:

* **enrolment** — the verifier harvests a CRP table per chip in the
  secure facility and stores it;
* **authentication** — the verifier replays a batch of never-used
  challenges; the device answers from silicon; the verifier accepts when
  the fractional Hamming distance to the enrolled responses stays below a
  threshold.

The threshold must sit between the intra-chip distance (noise + aging
drift, grows over the mission — exactly what the ARO-PUF bounds) and the
inter-chip distance (~50 %).  :func:`authentication_study` measures both
error rates over a population and a mission, producing experiment E10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .._rng import RngLike, as_generator, spawn
from ..core.base import PufDesign, RoPufInstance
from ..core.factory import Study
from ..core.population import BatchStudy
from ..core.readout import read_population
from .crp import CrpTable, _rows, harvest_many


@dataclass(frozen=True)
class AuthenticationResult:
    """Outcome of one authentication attempt."""

    accepted: bool
    distance: float
    threshold: float
    challenges_used: int


class Verifier:
    """Server-side authority holding enrolled CRP tables."""

    def __init__(self, threshold: float = 0.25, batch_size: int = 8):
        if not 0.0 < threshold < 0.5:
            raise ValueError("threshold must be in (0, 0.5)")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.threshold = threshold
        self.batch_size = batch_size
        self._tables: Dict[int, CrpTable] = {}
        self._cursor: Dict[int, int] = {}

    def enroll(self, instance: RoPufInstance, n_challenges: int = 64, rng: RngLike = None) -> None:
        """Harvest and store a chip's CRP table (one-time, secure phase):
        the one-chip case of :meth:`enroll_many`."""
        self.enroll_many(
            [instance.chip_id],
            instance.frequencies()[np.newaxis],
            instance.design,
            n_challenges,
            [rng],
        )

    def enroll_many(
        self,
        chip_ids: Sequence[int],
        frequencies: np.ndarray,
        design: PufDesign,
        n_challenges: int,
        rngs: Sequence[RngLike],
    ) -> None:
        """Harvest and store the CRP table of every chip, one frequency
        row of ``design`` per chip id, chip ``i`` drawing its challenges
        from ``rngs[i]`` (:func:`~repro.protocol.crp.harvest_many`).  A
        re-enrolled id gets a fresh table and a reset cursor."""
        for table in harvest_many(chip_ids, frequencies, design, n_challenges, rngs):
            self._tables[table.chip_id] = table
            self._cursor[table.chip_id] = 0

    def enrolled_chips(self) -> List[int]:
        return sorted(self._tables)

    def remaining_challenges(self, chip_id: int) -> int:
        """Unused challenges left before the table is exhausted."""
        table = self._tables[chip_id]
        return table.n_challenges - self._cursor[chip_id]

    def authenticate(
        self, claimed_id: int, device: RoPufInstance, *, rng: RngLike = None
    ) -> AuthenticationResult:
        """Run one authentication round against the claimed identity.

        Challenges are consumed (never replayed) to deny an eavesdropper a
        replay dictionary; an exhausted table raises so the operator knows
        to re-enrol.  The one-row case of :meth:`authenticate_many`.
        """
        return self.authenticate_many(
            [claimed_id], device.frequencies()[np.newaxis], device.design, rng=rng
        )[0]

    def authenticate_many(
        self,
        claimed_ids: Sequence[int],
        frequencies: np.ndarray,
        design: PufDesign,
        *,
        rng: RngLike = None,
    ) -> List[AuthenticationResult]:
        """One round for each claimed id, answered by the device whose
        frequency row (of ``design``) sits at the same index, as one read.

        Equals one :meth:`authenticate` call per claim in order, results,
        cursors and the noisy generator's end state: the rows and every
        claim's replayed pair tables go through one
        :func:`~repro.core.readout.read_population` call, whose shared
        draw is the per-claim draws in claim order.  A claim repeated in
        the batch replays the next challenges, as a second call would.
        Every identity and every table's remaining challenges are checked
        before a cursor moves or a number is drawn, so a batch that raises
        consumes nothing.
        """
        freqs = _rows(claimed_ids, frequencies, design)
        if not len(claimed_ids):
            return []
        cursors: Dict[int, int] = {}
        starts = []
        for claimed_id in claimed_ids:
            if claimed_id not in self._tables:
                raise KeyError(f"chip {claimed_id} was never enrolled")
            start = cursors.get(claimed_id, self._cursor[claimed_id])
            if start + self.batch_size > self._tables[claimed_id].n_challenges:
                raise RuntimeError(
                    f"chip {claimed_id}'s CRP table is exhausted; re-enrol"
                )
            cursors[claimed_id] = start + self.batch_size
            starts.append(start)
        claims = [
            (self._tables[claimed_id], start, start + self.batch_size)
            for claimed_id, start in zip(claimed_ids, starts)
        ]
        enrolled = np.stack([table.responses[lo:hi] for table, lo, hi in claims])
        # the matchings the tables were enrolled with, not rebuilt
        pairs = np.stack(
            [table.challenge_pairs(design.n_ros, lo, hi) for table, lo, hi in claims]
        )
        answers = read_population(
            freqs, pairs, design.tech, design.readout, noisy=True, rng=rng
        )
        self._cursor.update(cursors)
        n_bits = enrolled[0].size
        flips = np.count_nonzero(enrolled != answers, axis=(1, 2))
        return [
            AuthenticationResult(
                accepted=distance <= self.threshold,
                distance=distance,
                threshold=self.threshold,
                challenges_used=self.batch_size,
            )
            for distance in (int(n) / n_bits for n in flips)
        ]


@dataclass
class AuthenticationStudyResult:
    """E10: authentication error rates over the mission.

    Beyond the fixed-threshold FRR/FAR, the raw genuine and impostor
    distance samples are kept so the separability of the two populations
    can be judged directly (:meth:`equal_error_rate`).
    """

    years: List[float]
    frr: Dict[str, List[float]]  # design -> false-reject rate per year
    far: Dict[str, float]  # design -> false-accept rate (impostor chips)
    threshold: float
    genuine_distances: Dict[str, Dict[float, List[float]]]
    impostor_distances: Dict[str, List[float]]

    def equal_error_rate(self, design: str, year: float) -> Tuple[float, float]:
        """(EER, threshold) where FRR equals FAR for aged genuine chips.

        Sweeps the threshold over the pooled distance samples.  An EER
        near zero means the genuine-aged and impostor distributions are
        separable; a large EER means no threshold authenticates reliably.
        """
        genuine = np.asarray(self.genuine_distances[design][year])
        impostor = np.asarray(self.impostor_distances[design])
        candidates = np.unique(np.concatenate([genuine, impostor]))
        best = (1.0, 0.0)
        for thr in candidates:
            frr = float(np.mean(genuine > thr))
            far = float(np.mean(impostor <= thr))
            score = max(frr, far)
            if score < best[0]:
                best = (score, float(thr))
        return best

    def ledger_scalars(self) -> Dict[str, float]:
        """E10 headline scalars: end-of-mission FRR, FAR and EER."""
        out: Dict[str, float] = {}
        final_year = self.years[-1] if self.years else None
        for name, rates in self.frr.items():
            if rates:
                out[f"{name}.frr_at_final_year"] = rates[-1]
        for name, rate in self.far.items():
            out[f"{name}.far"] = rate
        if final_year is not None:
            for name in self.genuine_distances:
                eer, _ = self.equal_error_rate(name, final_year)
                out[f"{name}.eer_at_final_year"] = eer
        return out


def authentication_study(
    studies: Dict[str, Union[BatchStudy, Study]],
    years: Sequence[float] = (0.0, 2.0, 5.0, 10.0),
    *,
    threshold: float = 0.25,
    batch_size: int = 16,
    n_challenges: int = 256,
    rng: RngLike = None,
) -> AuthenticationStudyResult:
    """Measure FRR-over-lifetime and impostor FAR for each design.

    For every chip: enrol fresh, then authenticate the *aged* silicon at
    each mission point (false reject when the genuine chip is refused).
    The false-accept rate pits every chip against every other chip's
    enrolment at t=0.  Each study is read through ``design``,
    ``n_chips`` and ``frequencies(t)`` only, so the engine's
    :class:`~repro.core.population.BatchStudy` and the per-chip
    :class:`~repro.core.factory.Study` are interchangeable here; chip
    ``i`` enrols as id ``i``.
    """
    gen = as_generator(rng)
    frr: Dict[str, List[float]] = {}
    far: Dict[str, float] = {}
    genuine_distances: Dict[str, Dict[float, List[float]]] = {}
    impostor_distances: Dict[str, List[float]] = {}
    for name, study in studies.items():
        design, n_chips = study.design, study.n_chips
        ids = list(range(n_chips))
        fresh = study.frequencies()
        verifier = Verifier(threshold=threshold, batch_size=batch_size)
        verifier.enroll_many(ids, fresh, design, n_challenges, spawn(gen, n_chips))

        rates = []
        genuine_distances[name] = {}
        for t in years:
            results = verifier.authenticate_many(
                ids, study.frequencies(t), design, rng=gen
            )
            rejects = sum(0 if r.accepted else 1 for r in results)
            rates.append(rejects / n_chips)
            genuine_distances[name][t] = [r.distance for r in results]
        frr[name] = rates

        # impostor trials: chip i + 1 answers chip i's challenges (fresh)
        results = verifier.authenticate_many(
            ids, np.roll(fresh, -1, axis=0), design, rng=gen
        )
        far[name] = sum(1 if r.accepted else 0 for r in results) / len(results)
        impostor_distances[name] = [r.distance for r in results]
    return AuthenticationStudyResult(
        years=list(years),
        frr=frr,
        far=far,
        threshold=threshold,
        genuine_distances=genuine_distances,
        impostor_distances=impostor_distances,
    )

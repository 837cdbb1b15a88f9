"""Reliability: intra-chip Hamming distance against a golden response.

Two flavours matter for this paper:

* **aging reliability** — fraction of bits flipped between the enrolment
  (golden) response and the response of the *same chip after t years in
  the field*, evaluated at the same corner.  This is the metric behind the
  abstract's "7.7 % vs 32 % over 10 years".
* **environmental reliability** — flips between the golden response and a
  noisy evaluation at a different temperature/voltage corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .hamming import fractional_hd


@dataclass(frozen=True)
class ReliabilityReport:
    """Bit-flip statistics over a population of chips."""

    mean_flip_fraction: float
    std_flip_fraction: float
    worst_flip_fraction: float
    per_chip: np.ndarray

    @classmethod
    def from_flip_counts(cls, counts, n_bits: int) -> "ReliabilityReport":
        """The report of per-chip flipped-bit ``counts`` out of ``n_bits``.

        ``counts`` is one row of :meth:`repro.core.population.BatchStudy.flip_counts`
        (or any per-chip count vector); the fields equal
        :func:`reliability` on the response matrices the counts came from.
        """
        if n_bits < 1:
            raise ValueError("empty responses have no Hamming distance")
        counts = np.asarray(counts)
        if not counts.size:
            raise ValueError("need at least one chip")
        return cls._from_fractions(counts / n_bits)

    @classmethod
    def _from_fractions(cls, per_chip: np.ndarray) -> "ReliabilityReport":
        return cls(
            mean_flip_fraction=float(per_chip.mean()),
            std_flip_fraction=(
                float(per_chip.std(ddof=1)) if per_chip.size > 1 else 0.0
            ),
            worst_flip_fraction=float(per_chip.max()),
            per_chip=per_chip,
        )

    def percent(self) -> float:
        """Mean flipped-bit percentage (the number papers quote)."""
        return 100.0 * self.mean_flip_fraction

    @property
    def mean_reliability(self) -> float:
        """Conventional reliability figure: ``1 - mean flip fraction``."""
        return 1.0 - self.mean_flip_fraction


def flip_fraction(golden, observed) -> float:
    """Fraction of bits that differ between golden and observed responses."""
    return fractional_hd(golden, observed)


def reliability(goldens: Sequence, observeds: Sequence) -> ReliabilityReport:
    """Per-chip flip fractions aggregated over a population.

    ``goldens[i]`` and ``observeds[i]`` are the enrolment and regeneration
    responses of chip ``i``.
    """
    if len(goldens) != len(observeds):
        raise ValueError("goldens and observeds must pair up one chip each")
    if not len(goldens):
        raise ValueError("need at least one chip")
    if (
        isinstance(goldens, np.ndarray)
        and isinstance(observeds, np.ndarray)
        and goldens.ndim == 2
        and goldens.shape == observeds.shape
    ):
        # batched fast path: (n_chips, n_bits) response matrices straight
        # from a BatchStudy — one vectorised XOR instead of a chip loop
        return ReliabilityReport.from_flip_counts(
            np.count_nonzero(goldens != observeds, axis=1), goldens.shape[1]
        )
    return ReliabilityReport._from_fractions(
        np.array([flip_fraction(g, o) for g, o in zip(goldens, observeds)])
    )


def flip_curve(
    goldens: Sequence, observed_by_time: Sequence[Sequence]
) -> List[ReliabilityReport]:
    """Reliability reports along a time (or corner) sweep.

    ``observed_by_time[k]`` holds the population's responses at sweep point
    ``k``; the result is one report per sweep point — the series behind the
    paper's bit-flips-versus-years figure.
    """
    return [reliability(goldens, observed) for observed in observed_by_time]

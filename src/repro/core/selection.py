"""Enrolment-time pair selection: the 1-out-of-k masking enhancement.

The classic RO-PUF reliability technique (Suh & Devadas, DAC 2007):
instead of comparing fixed pairs, group ``k`` oscillators per response bit
and pick — *at enrolment, using measured frequencies* — the pair within
each group whose frequency difference is largest.  A wide margin at
enrolment buys headroom against noise and drift; the selected indices are
stored as (public) helper data.

This is the state of the art the ARO-PUF is implicitly measured against,
so the framework implements it faithfully:

* :func:`select_stable_pairs` performs the per-chip enrolment selection;
* :class:`StaticPairing` wraps the selected pairs as a
  :class:`~repro.core.pairing.PairingScheme` so the rest of the stack
  (readout, metrics, aging studies) works unchanged;
* the masking ablation (experiment E9) quantifies the catch: masking is
  bought with ``k`` oscillators per bit, and a margin that is generous
  against *zero-mean measurement noise* is still consumed by the
  *systematically growing* aging differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .pairing import PairingScheme


@dataclass(frozen=True)
class StaticPairing(PairingScheme):
    """A fixed, enrolment-derived pair list acting as a pairing scheme.

    The pair table is chip-specific helper data; instances of this scheme
    are created per chip by :func:`select_stable_pairs`.
    """

    pair_table: Tuple[Tuple[int, int], ...]

    def pairs(self, n_ros: int, challenge: Optional[int] = None) -> np.ndarray:
        self._check(n_ros)
        table = np.asarray(self.pair_table, dtype=np.int64)
        if table.size and table.max() >= n_ros:
            raise ValueError(
                f"pair table references RO {int(table.max())} but the array "
                f"has only {n_ros}"
            )
        return table.reshape(-1, 2)

    def n_bits(self, n_ros: int) -> int:
        return len(self.pair_table)


def select_stable_pairs(
    frequencies: np.ndarray, k: int
) -> StaticPairing:
    """1-out-of-k enrolment selection.

    Oscillators are grouped ``[0..k-1], [k..2k-1], ...`` (physically
    adjacent, matching how masking is laid out in silicon); within each
    group the pair with the largest absolute frequency difference wins.
    One response bit per group; leftover oscillators are unused.

    Parameters
    ----------
    frequencies:
        Enrolment-time measured frequencies, shape ``(n_ros,)``.
    k:
        Group size (``k = 2`` degenerates to plain neighbour pairing).
    """
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.ndim != 1:
        raise ValueError("frequencies must be a 1-D array")
    if k < 2:
        raise ValueError("group size k must be at least 2")
    n_groups = freqs.size // k
    if n_groups < 1:
        raise ValueError(f"need at least k={k} oscillators, got {freqs.size}")

    groups = freqs[: n_groups * k].reshape(n_groups, k)
    # argmax over all distinct pairs within each group (row-major over its
    # k x k gap matrix, first maximum wins); the diagonal is masked so a
    # fully tied group still yields two distinct devices
    diff = np.abs(groups[:, :, None] - groups[:, None, :])
    diff[:, np.arange(k), np.arange(k)] = -1.0
    i, j = np.divmod(diff.reshape(n_groups, k * k).argmax(axis=1), k)
    base = np.arange(n_groups) * k
    return StaticPairing(
        pair_table=tuple(zip((base + i).tolist(), (base + j).tolist()))
    )


def selection_margins(frequencies: np.ndarray, pairing: StaticPairing) -> np.ndarray:
    """Relative frequency margins ``|f_a - f_b| / mean`` of selected pairs.

    The enrolment-time safety margin each masked bit starts its life with.
    """
    freqs = np.asarray(frequencies, dtype=float)
    pairs = pairing.pairs(freqs.size)
    gaps = np.abs(freqs[pairs[:, 0]] - freqs[pairs[:, 1]])
    return gaps / freqs.mean()

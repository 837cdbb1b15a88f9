"""Measurement datapath: counters, comparison, and voting.

The silicon readout of an RO-PUF routes the two selected oscillators to two
counters for a fixed window and compares the counts.  This module models
that path: the (optional) jitter + quantisation of the counts and the final
comparison, plus majority voting over repeated windows (how golden
responses are enrolled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .._rng import RngLike, as_generator, seeded_generators, spawn
from ..environment.noise import majority_vote, noisy_counts
from ..transistor.technology import TechnologyCard


@dataclass(frozen=True)
class ReadoutConfig:
    """Configuration of the counting/comparison datapath.

    Parameters
    ----------
    window_s:
        Counting window per evaluation.  20 us at ~1 GHz gives ~2e4 counts,
        so quantisation is at the 5e-5 relative level — far below jitter.
    counter_bits:
        Width of the two ripple counters (area model input; also bounds the
        window: the counter must not wrap).
    """

    window_s: float = 2.0e-5
    counter_bits: int = 16

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.counter_bits < 4:
            raise ValueError("counter_bits must be at least 4")

    def check_no_overflow(self, max_frequency_hz: float) -> None:
        """Raise if the window would wrap the counters at this frequency."""
        max_count = max_frequency_hz * self.window_s
        if max_count >= 2**self.counter_bits:
            raise ValueError(
                f"a {self.counter_bits}-bit counter wraps after "
                f"{2**self.counter_bits} edges but the window collects "
                f"~{max_count:.0f}; shorten window_s or widen the counter"
            )


def read_population(
    frequencies: np.ndarray,
    pairs: np.ndarray,
    tech: TechnologyCard,
    config: ReadoutConfig,
    *,
    noisy: bool = False,
    rng: RngLike = None,
    keys: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """One readout of a population: response bits of every chip.

    ``frequencies`` is ``(n_chips, n_ros)``.  ``pairs`` is either one
    ``(n_bits, 2)`` table shared by every chip, giving ``(n_chips,
    n_bits)`` bits, or per-chip tables ``(n_chips, k, n_bits, 2)``, any
    integer dtype, giving ``(n_chips, k, n_bits)``.  ``bit = 1`` when the
    first oscillator of the pair counts higher.  Noiseless mode compares
    true frequencies; noisy mode pushes both oscillators of every pair
    through :func:`~repro.environment.noise.noisy_counts`, oscillator
    ``a`` then ``b`` for each table, in one ``(n_chips, [k,] 2, n_bits)``
    array.  The noise source is one of two:

    * ``rng``, one shared generator: its C-order draw is the draws of one
      read per chip in chip order, so the bits and the generator's end
      state equal that loop's;
    * ``keys``, one seed key per row: row ``i`` draws from
      ``default_rng(keys[i])``, block-seeded by
      :func:`repro._rng.seeded_generators`, so it equals a one-chip
      read with ``rng=keys[i]``.

    The pair-range and positive-frequency checks (a NaN frequency is
    refused in either mode) and the noisy counter-overflow check run
    once for the whole population.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    pairs = np.asarray(pairs)
    if frequencies.ndim != 2:
        raise ValueError(
            f"frequencies must have shape (n_chips, n_ros), got {frequencies.shape}"
        )
    n_chips, n_ros = frequencies.shape
    per_chip = pairs.ndim == 4
    if pairs.shape[-1:] != (2,) or not (pairs.ndim == 2 or per_chip):
        raise ValueError(
            "pairs must have shape (n_bits, 2) or (n_chips, k, n_bits, 2), "
            f"got {pairs.shape}"
        )
    if per_chip and pairs.shape[0] != n_chips:
        raise ValueError(
            f"{pairs.shape[0]} pair tables for {n_chips} chips"
        )
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n_ros):
        raise ValueError("pair indices out of range")
    # refuses NaN too: a NaN compares False on either side of a pair
    if not np.all(frequencies > 0):
        raise ValueError("frequencies must be positive")
    # (n_chips, [k,] 2, n_bits): per table the a row, then the b row
    if per_chip:
        rows = np.arange(n_chips).reshape(-1, 1, 1, 1)
        f_ab = frequencies[rows, pairs.swapaxes(-1, -2)]
    else:
        f_ab = frequencies[:, pairs.T]
    if noisy:
        if keys is not None:
            if rng is not None:
                raise ValueError("pass rng or keys, not both")
            if len(keys) != n_chips:
                raise ValueError(f"{len(keys)} keys for {n_chips} chips")
            source = seeded_generators(keys)
        else:
            source = as_generator(rng)
        if frequencies.size:
            config.check_no_overflow(float(frequencies.max()))
        f_ab = noisy_counts(f_ab, config.window_s, tech, source)
    return (f_ab[..., 0, :] > f_ab[..., 1, :]).astype(np.uint8)


def compare_pairs(
    frequencies: np.ndarray,
    pairs: np.ndarray,
    tech: TechnologyCard,
    config: ReadoutConfig,
    *,
    noisy: bool = False,
    rng: RngLike = None,
) -> np.ndarray:
    """One evaluation: response bits from pair frequency comparisons.

    ``bit = 1`` when the first oscillator of the pair counts higher.
    Noiseless mode compares true frequencies directly (the analytic
    "infinite window" golden measurement); noisy mode pushes both
    oscillators through the jittered, quantised counter model.

    ``frequencies`` may carry leading batch axes (e.g. a chip axis of
    shape ``(n_chips, n_ros)`` from a
    :class:`~repro.core.population.BatchStudy`); oscillators are indexed
    along the last axis and the result keeps the batch shape,
    ``(..., n_bits)``.  It is :func:`read_population` over the batch
    rows in C order, so one row is a one-chip read.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    pairs = np.asarray(pairs)
    if pairs.ndim != 2:
        raise ValueError(f"pairs must have shape (n_bits, 2), got {pairs.shape}")
    bits = read_population(
        frequencies.reshape(-1, frequencies.shape[-1]),
        pairs,
        tech,
        config,
        noisy=noisy,
        rng=rng,
    )
    return bits.reshape(frequencies.shape[:-1] + bits.shape[-1:])


def voted_response(
    frequencies: np.ndarray,
    pairs: np.ndarray,
    tech: TechnologyCard,
    config: ReadoutConfig,
    *,
    votes: int = 1,
    rng: RngLike = None,
) -> np.ndarray:
    """Majority-voted noisy response over ``votes`` repeated windows.

    Like :func:`compare_pairs`, ``frequencies`` may carry leading batch
    axes; the vote is taken per bit across the repeated windows.
    """
    if votes < 1:
        raise ValueError("votes must be at least 1")
    if votes == 1:
        return compare_pairs(
            frequencies, pairs, tech, config, noisy=True, rng=rng
        )
    children = spawn(rng, votes)
    rounds = np.stack(
        [
            compare_pairs(frequencies, pairs, tech, config, noisy=True, rng=child)
            for child in children
        ]
    )
    return majority_vote(rounds)

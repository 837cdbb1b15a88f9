"""Measurement datapath: counters, comparison, and voting.

The silicon readout of an RO-PUF routes the two selected oscillators to two
counters for a fixed window and compares the counts.  This module models
that path: the (optional) jitter + quantisation of the counts and the final
comparison, plus majority voting over repeated windows (how golden
responses are enrolled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import RngLike, as_generator, spawn
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


def check_pairs(pairs: np.ndarray, n_ros: int, *, challenge_axis: bool = False) -> None:
    """Raise unless ``pairs`` is ``(n_bits, 2)`` — or ``(k, n_bits, 2)``
    with ``challenge_axis`` — and indexes only ``n_ros`` oscillators."""
    if pairs.ndim != 2 + challenge_axis or pairs.shape[-1] != 2:
        raise ValueError(f"pairs must have shape (n_bits, 2), got {pairs.shape}")
    if np.any(pairs < 0) or np.any(pairs >= n_ros):
        raise ValueError("pair indices out of range")


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
    ``(..., n_bits)``.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    pairs = np.asarray(pairs)
    check_pairs(pairs, frequencies.shape[-1])

    f_a = frequencies[..., pairs[:, 0]]
    f_b = frequencies[..., pairs[:, 1]]
    if not noisy:
        return (f_a > f_b).astype(np.uint8)

    config.check_no_overflow(float(frequencies.max()))
    gen = as_generator(rng)
    counts_a = noisy_counts(f_a, config.window_s, tech, gen)
    counts_b = noisy_counts(f_b, config.window_s, tech, gen)
    return (counts_a > counts_b).astype(np.uint8)


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

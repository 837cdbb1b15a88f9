"""Evaluation noise: per-measurement frequency jitter and counter quantisation.

Within one counting window an RO's measured count deviates from its mean
for two reasons:

* **jitter** — supply and thermal noise modulate the period; across a full
  window this integrates to a Gaussian relative frequency error with sigma
  ``TechnologyCard.eval_jitter``;
* **quantisation** — the counter truncates to whole edges, a uniform
  ``[-1, 0]``-count error (negligible for the windows the paper uses, but
  modelled so short-window studies behave correctly).

Golden (enrolment) responses are conventionally taken as the majority over
repeated evaluations; :func:`majority_vote` implements that.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .._rng import RngLike, as_generator
from ..transistor.technology import TechnologyCard


def noisy_counts(
    frequencies: np.ndarray,
    window_s: float,
    tech: TechnologyCard,
    rng: Union[RngLike, Sequence[np.random.Generator]] = None,
    *,
    quantize: bool = True,
) -> np.ndarray:
    """Simulated counter readings for one measurement window.

    Parameters
    ----------
    frequencies:
        True mean oscillation frequencies (hertz), any shape.
    window_s:
        Counting window length in seconds.
    rng:
        One generator (or seed) for the whole array, drawn in C order; or
        a list of generators, one per row of the first axis, row ``i``
        drawn from ``rng[i]`` (the same numbers a call on that row alone
        would draw).

    Returns
    -------
    Float array of counts (kept float so fractional analysis is possible
    when ``quantize=False``).
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    freqs = np.asarray(frequencies, dtype=float)
    if not np.all(freqs > 0):
        raise ValueError("frequencies must be positive")
    if isinstance(rng, (list, tuple)):
        if len(rng) != freqs.shape[0]:
            raise ValueError(f"{len(rng)} generators for {freqs.shape[0]} rows")
        counts = np.empty(freqs.shape)
        for row, gen in zip(counts, rng):
            gen.standard_normal(out=row)
    else:
        counts = as_generator(rng).standard_normal(freqs.shape)
    # in place, in the grouping freqs * (1 + jitter * z) * window_s
    counts *= tech.eval_jitter
    counts += 1.0
    counts *= freqs
    counts *= window_s
    if quantize:
        np.floor(counts, out=counts)
    return counts


def noisy_frequencies(
    frequencies: np.ndarray,
    tech: TechnologyCard,
    rng: RngLike = None,
) -> np.ndarray:
    """Frequencies with one evaluation's worth of jitter applied."""
    freqs = np.asarray(frequencies, dtype=float)
    gen = as_generator(rng)
    return freqs * (1.0 + tech.eval_jitter * gen.standard_normal(freqs.shape))


def majority_vote(responses: np.ndarray) -> np.ndarray:
    """Bitwise majority over repeated response evaluations.

    ``responses`` has shape ``(n_repeats, n_bits)`` with 0/1 entries —
    or ``(n_repeats, ..., n_bits)`` for batched (chip-axis) responses;
    the result is the per-bit majority over the first axis (ties broken
    towards 1, so use an odd repeat count for unambiguous enrolment).
    """
    responses = np.asarray(responses)
    if responses.ndim < 2:
        raise ValueError("responses must have shape (n_repeats, ..., n_bits)")
    if responses.size == 0:
        raise ValueError("responses is empty")
    return (responses.mean(axis=0) >= 0.5).astype(np.uint8)

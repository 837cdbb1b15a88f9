"""Repetition code: the inner workhorse of high-error PUF key generators.

A raw bit-error probability around 30 % (the aged conventional RO-PUF) is
far beyond what any practical standalone BCH code handles, so key
generators concatenate a majority-voted repetition inner code that knocks
the error rate down to a level the outer BCH can finish off.  The price is
a factor-``r`` blow-up in raw PUF bits — the dominant term in the paper's
24x area comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RepetitionCode:
    """An ``r``-fold repetition code with majority decoding (``r`` odd)."""

    r: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.r % 2 == 0:
            raise ValueError("repetition factor must be a positive odd integer")

    @property
    def n(self) -> int:
        return self.r

    @property
    def k(self) -> int:
        return 1

    @property
    def t(self) -> int:
        """Errors corrected per group: ``(r - 1) // 2``."""
        return (self.r - 1) // 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rep({self.r})"

    def encode(self, message) -> np.ndarray:
        """Repeat every message bit ``r`` times."""
        msg = np.asarray(message)
        if not np.all((msg == 0) | (msg == 1)):
            raise ValueError("message must be a 0/1 bit vector")
        return np.repeat(msg.astype(np.uint8), self.r)

    def decode(self, received) -> np.ndarray:
        """Majority-vote every group of ``r`` bits."""
        rx = np.asarray(received)
        if rx.size % self.r != 0:
            raise ValueError(
                f"received length {rx.size} is not a multiple of r={self.r}"
            )
        if not np.all((rx == 0) | (rx == 1)):
            raise ValueError("received must be a 0/1 bit vector")
        groups = rx.reshape(-1, self.r)
        return (groups.sum(axis=1) > self.t).astype(np.uint8)

    def decoded_error_probability(self, p: float) -> float:
        """Residual bit-error probability after majority voting (a 1-entry
        view of :func:`majority_error_probabilities`)."""
        return float(majority_error_probabilities(p, [self.r])[0])


def majority_error_probabilities(p: float, repetitions) -> np.ndarray:
    """Residual bit-error probability after majority voting, per factor.

    A decoded bit is wrong when more than ``t = (r - 1) // 2`` of its ``r``
    copies flipped: the binomial survival function at ``t``, evaluated for
    every factor in one ``binom.sf`` call.  ``r = 1`` (no inner code)
    passes ``p`` through unchanged.
    """
    from scipy import stats

    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    r = np.asarray(repetitions, dtype=np.int64)
    return np.where(r == 1, p, stats.binom.sf((r - 1) // 2, r, p))

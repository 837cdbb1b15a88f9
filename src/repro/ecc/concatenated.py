"""Concatenated (repetition inner, BCH outer) codes and key-level codecs.

``ConcatenatedCode`` is the linear code actually used by the fuzzy
extractor: the outer BCH codeword is expanded bit-by-bit through the inner
repetition code.  Linearity is what makes the code-offset construction
work, and concatenating two linear codes preserves it.

``KeyCodec`` stacks as many concatenated blocks as the key needs (a 128-bit
key over a ``k=64`` outer code needs two blocks) and exposes the aggregate
geometry the design-space search optimises.

The failure model is one array formula, :func:`key_failure_probabilities`,
over a whole (repetition x outer code) grid; the scalar methods on the
classes are 1x1 views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .bch import BchCode
from .repetition import RepetitionCode, majority_error_probabilities


@dataclass(frozen=True)
class ConcatenatedCode:
    """Repetition-inside-BCH concatenation (inner ``r`` may be 1)."""

    outer: BchCode
    inner: RepetitionCode

    @property
    def n(self) -> int:
        """Raw (PUF-side) bits per block."""
        return self.outer.n * self.inner.r

    @property
    def k(self) -> int:
        """Message bits per block."""
        return self.outer.k

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.inner} o {self.outer}"

    def encode(self, message) -> np.ndarray:
        """Outer-encode then repeat every codeword bit."""
        return self.inner.encode(self.outer.encode(message))

    def decode(self, received) -> Tuple[np.ndarray, int]:
        """Majority-vote the groups, then BCH-decode the result.

        Returns ``(corrected outer codeword, outer errors corrected)``.
        """
        rx = np.asarray(received)
        if rx.shape != (self.n,):
            raise ValueError(f"received must have shape ({self.n},)")
        voted = self.inner.decode(rx)
        return self.outer.decode(voted)

    def decode_message(self, received) -> np.ndarray:
        """Decode straight to the message bits."""
        corrected, _ = self.decode(received)
        return self.outer.extract_message(corrected)

    def correct(self, received) -> np.ndarray:
        """Return the corrected *raw* codeword (inner-expanded).

        This is what the code-offset fuzzy extractor needs: the nearest
        codeword at the raw-bit level, so the exact enrolled response can
        be reconstructed as ``offset XOR codeword``.
        """
        corrected_outer, _ = self.decode(received)
        return self.inner.encode(corrected_outer)

    def block_failure_probability(self, p: float) -> float:
        """Probability one block fails at raw bit-error probability ``p``
        (a 1x1 view of :func:`block_failure_probabilities`)."""
        grid = block_failure_probabilities(p, [self.inner.r], [self.outer])
        return float(grid[0, 0])


@dataclass(frozen=True)
class KeyCodec:
    """Enough concatenated blocks to carry ``key_bits`` message bits."""

    code: ConcatenatedCode
    key_bits: int

    def __post_init__(self) -> None:
        if self.key_bits < 1:
            raise ValueError("key_bits must be positive")

    @property
    def n_blocks(self) -> int:
        return _n_blocks(self.key_bits, self.code.k)

    @property
    def raw_bits(self) -> int:
        """Total PUF response bits consumed."""
        return self.n_blocks * self.code.n

    @property
    def message_bits(self) -> int:
        """Total message capacity (>= key_bits)."""
        return self.n_blocks * self.code.k

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.n_blocks} x [{self.code}]"

    def encode(self, message) -> np.ndarray:
        """Encode ``message_bits`` bits into ``raw_bits`` bits."""
        msg = np.asarray(message)
        if msg.shape != (self.message_bits,):
            raise ValueError(f"message must have shape ({self.message_bits},)")
        blocks = msg.reshape(self.n_blocks, self.code.k)
        return np.concatenate([self.code.encode(b) for b in blocks])

    def decode(self, received) -> np.ndarray:
        """Decode ``raw_bits`` bits back to the ``message_bits`` bits."""
        rx = np.asarray(received)
        if rx.shape != (self.raw_bits,):
            raise ValueError(f"received must have shape ({self.raw_bits},)")
        blocks = rx.reshape(self.n_blocks, self.code.n)
        return np.concatenate([self.code.decode_message(b) for b in blocks])

    def correct(self, received) -> np.ndarray:
        """Corrected raw codeword over all blocks (see
        :meth:`ConcatenatedCode.correct`)."""
        rx = np.asarray(received)
        if rx.shape != (self.raw_bits,):
            raise ValueError(f"received must have shape ({self.raw_bits},)")
        blocks = rx.reshape(self.n_blocks, self.code.n)
        return np.concatenate([self.code.correct(b) for b in blocks])

    def key_failure_probability(self, p: float) -> float:
        """Probability the key regeneration fails at raw error rate ``p``
        (a 1x1 view of :func:`key_failure_probabilities`)."""
        return key_failure_probabilities(
            p, [self.code.inner.r], [self.code.outer], self.key_bits
        )[0][0]


def _n_blocks(key_bits: int, k: int) -> int:
    return -(-key_bits // k)  # ceil division


def block_failure_probabilities(
    p: float, repetitions: Sequence[int], outers: Sequence
) -> np.ndarray:
    """Block-failure probability for every (repetition, outer code) pair.

    The inner stage leaves each outer bit wrong independently with
    probability ``q_r`` (:func:`.repetition.majority_error_probabilities`);
    a block fails when more than ``t`` of its ``n`` outer bits are wrong.
    One ``binom.sf`` call covers the whole grid, shape
    ``(len(repetitions), len(outers))``.
    """
    from scipy import stats

    q = majority_error_probabilities(p, repetitions)
    t = np.array([outer.t for outer in outers], dtype=np.int64)
    n = np.array([outer.n for outer in outers], dtype=np.int64)
    return stats.binom.sf(t, n, q[:, np.newaxis])


def key_failure_probabilities(
    p: float, repetitions: Sequence[int], outers: Sequence, key_bits: int
) -> List[List[float]]:
    """Key-failure probability for every (repetition, outer code) pair.

    A key of ``key_bits`` bits spans ``ceil(key_bits / k)`` independent
    blocks and fails when any block does.  The last step runs in Python
    ``float`` arithmetic on purpose: ``np.power`` can differ from it by one
    ULP, and every caller (the scalar views and the design-space search)
    must see the same bits.
    """
    p_block = block_failure_probabilities(p, repetitions, outers).tolist()
    n_blocks = [_n_blocks(key_bits, outer.k) for outer in outers]
    return [
        [1.0 - (1.0 - pb) ** nb for pb, nb in zip(row, n_blocks)]
        for row in p_block
    ]

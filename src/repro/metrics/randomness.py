"""NIST SP 800-22-style randomness battery (the tests PUF papers quote).

Implemented from the test definitions: monobit frequency, block frequency,
runs, longest-run-of-ones, serial, approximate entropy and cumulative sums.
Each test returns a p-value; the conventional pass criterion is
``p >= 0.01``.  The battery is meant for the concatenated response material
of a chip population (a few thousand bits), matching how the paper's
"random keys" claim is usually substantiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

#: conventional NIST significance level
ALPHA = 0.01


def _bits(x) -> np.ndarray:
    arr = np.asarray(x).ravel()
    if arr.size == 0:
        raise ValueError("empty bit sequence")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("sequence must contain only 0/1")
    return arr.astype(np.int8)


def monobit_test(bits) -> float:
    """Frequency (monobit) test p-value."""
    from scipy import special

    b = _bits(bits)
    s = np.abs(np.sum(2 * b.astype(np.int64) - 1))
    return float(special.erfc(s / np.sqrt(2.0 * b.size)))


def block_frequency_test(bits, block_size: int = 16) -> float:
    """Frequency-within-block test p-value."""
    from scipy import special

    b = _bits(bits)
    if block_size < 2:
        raise ValueError("block_size must be at least 2")
    n_blocks = b.size // block_size
    if n_blocks < 1:
        raise ValueError("sequence shorter than one block")
    blocks = b[: n_blocks * block_size].reshape(n_blocks, block_size)
    pi = blocks.mean(axis=1)
    chi2 = 4.0 * block_size * np.sum((pi - 0.5) ** 2)
    return float(special.gammaincc(n_blocks / 2.0, chi2 / 2.0))


def runs_test(bits) -> float:
    """Runs test p-value (returns 0.0 when the monobit prerequisite fails)."""
    from scipy import special

    b = _bits(bits)
    n = b.size
    pi = b.mean()
    if abs(pi - 0.5) >= 2.0 / np.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    num = abs(v - 2.0 * n * pi * (1 - pi))
    den = 2.0 * np.sqrt(2.0 * n) * pi * (1 - pi)
    return float(special.erfc(num / den))


def longest_run_test(bits) -> float:
    """Longest-run-of-ones test p-value (128-bit-block variant, K=5)."""
    from scipy import special

    b = _bits(bits)
    block_size = 128
    if b.size < block_size:
        # fall back to the 8-bit-block variant for short sequences
        block_size = 8
        categories = [1, 2, 3, 4]
        probs = [0.2148, 0.3672, 0.2305, 0.1875]
    else:
        categories = [4, 5, 6, 7, 8, 9]
        probs = [0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124]
    n_blocks = b.size // block_size
    if n_blocks < 1:
        raise ValueError("sequence shorter than one block")
    counts = np.zeros(len(categories), dtype=np.int64)
    for i in range(n_blocks):
        block = b[i * block_size : (i + 1) * block_size]
        longest = 0
        run = 0
        for bit in block:
            run = run + 1 if bit else 0
            longest = max(longest, run)
        idx = int(np.searchsorted(categories, longest))
        idx = min(idx, len(categories) - 1)
        if longest < categories[0]:
            idx = 0
        counts[idx] += 1
    expected = n_blocks * np.asarray(probs)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return float(special.gammaincc((len(categories) - 1) / 2.0, chi2 / 2.0))


def _psi_squared(b: np.ndarray, m: int) -> float:
    if m == 0:
        return 0.0
    n = b.size
    ext = np.concatenate([b, b[: m - 1]]) if m > 1 else b
    weights = 1 << np.arange(m - 1, -1, -1)
    patterns = np.convolve(ext, weights[::-1], mode="valid")[:n] if m > 1 else ext
    counts = np.bincount(patterns.astype(np.int64), minlength=2**m)
    return float((2**m / n) * np.sum(counts.astype(np.float64) ** 2) - n)


def serial_test(bits, m: int = 3) -> float:
    """Serial test p-value (first of the two NIST p-values)."""
    from scipy import special

    b = _bits(bits)
    if m < 1:
        raise ValueError("m must be positive")
    psi_m = _psi_squared(b, m)
    psi_m1 = _psi_squared(b, m - 1)
    delta = psi_m - psi_m1
    return float(special.gammaincc(2 ** (m - 2), delta / 2.0))


def approximate_entropy_test(bits, m: int = 2) -> float:
    """Approximate-entropy test p-value."""
    from scipy import special

    b = _bits(bits)
    n = b.size

    def phi(mm: int) -> float:
        if mm == 0:
            return 0.0
        ext = np.concatenate([b, b[: mm - 1]]) if mm > 1 else b
        weights = 1 << np.arange(mm - 1, -1, -1)
        patterns = (
            np.convolve(ext, weights[::-1], mode="valid")[:n] if mm > 1 else ext
        )
        counts = np.bincount(patterns.astype(np.int64), minlength=2**mm)
        c = counts[counts > 0] / n
        return float(np.sum(c * np.log(c)))

    ap_en = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (np.log(2.0) - ap_en)
    return float(special.gammaincc(2 ** (m - 1), chi2 / 2.0))


def cumulative_sums_test(bits) -> float:
    """Cumulative-sums (forward) test p-value."""
    from scipy import special

    b = _bits(bits)
    n = b.size
    s = np.cumsum(2 * b.astype(np.int64) - 1)
    z = int(np.abs(s).max())
    if z == 0:
        return 1.0
    sqrt_n = np.sqrt(n)
    total = 0.0
    for k in range(int((-n / z + 1) // 4), int((n / z - 1) // 4) + 1):
        total += special.ndtr((4 * k + 1) * z / sqrt_n) - special.ndtr(
            (4 * k - 1) * z / sqrt_n
        )
    for k in range(int((-n / z - 3) // 4), int((n / z - 1) // 4) + 1):
        total -= special.ndtr((4 * k + 3) * z / sqrt_n) - special.ndtr(
            (4 * k + 1) * z / sqrt_n
        )
    return float(max(0.0, min(1.0, 1.0 - total)))


@dataclass(frozen=True)
class RandomnessReport:
    """Results of the battery: test name -> p-value."""

    p_values: Dict[str, float]

    def passed(self, alpha: float = ALPHA) -> Dict[str, bool]:
        return {name: p >= alpha for name, p in self.p_values.items()}

    def all_passed(self, alpha: float = ALPHA) -> bool:
        return all(self.passed(alpha).values())


def randomness_battery(bits) -> RandomnessReport:
    """Run every test on one bit sequence."""
    return RandomnessReport(
        p_values={
            "monobit": monobit_test(bits),
            "block_frequency": block_frequency_test(bits),
            "runs": runs_test(bits),
            "longest_run": longest_run_test(bits),
            "serial": serial_test(bits),
            "approximate_entropy": approximate_entropy_test(bits),
            "cumulative_sums": cumulative_sums_test(bits),
        }
    )


def population_bits(responses: Sequence) -> np.ndarray:
    """Concatenate a population's responses into one test sequence."""
    return np.concatenate([_bits(r) for r in responses])

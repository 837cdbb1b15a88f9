"""Property-based oracle: the battery's closed-form p-values against scipy.

``repro.metrics.randomness`` computes its p-values with :mod:`math` alone:
``erfc``, ``ndtr(x) = erfc(-x / sqrt 2) / 2`` and a finite-series upper
incomplete gamma for integer and half-integer ``a``.  scipy is the oracle
here and only here:

* the private ``_gammaincc`` helper against ``scipy.special.gammaincc``
  over ``a`` in [1/2, 2048] and ``x`` in (0, 4a];
* ``_ndtr`` and ``math.erfc`` against their scipy ufuncs on [-40, 40];
* each of the seven battery tests against a scipy-based reference kept in
  this file, computed from the NIST SP 800-22 test definitions.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

special = pytest.importorskip("scipy.special")

from repro.metrics import randomness  # noqa: E402

#: relative agreement required wherever the oracle is above 1e-300
REL = 1e-11
TINY = 1e-300


def _close(got: float, ref: float, abs_tol: float = TINY) -> bool:
    return math.isclose(got, ref, rel_tol=REL, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# the special functions


@settings(max_examples=400, deadline=None)
@given(twice_a=st.integers(1, 4096), frac=st.floats(0.0, 1.0, exclude_min=True))
def test_gammaincc_matches_scipy(twice_a, frac):
    a = twice_a / 2
    x = 4 * a * frac
    ref = float(special.gammaincc(a, x))
    got = randomness._gammaincc(a, x)
    if ref > TINY:
        assert got == pytest.approx(ref, rel=REL)
    else:
        assert got <= 2 * TINY


@pytest.mark.parametrize("a", [0.5, 1, 1.5, 2, 2.5, 99.5, 200, 2047.5, 2048])
def test_gammaincc_near_the_mean(a):
    # the series is hardest where x ~ a: many terms of similar size
    for x in np.linspace(max(a - 6 * math.sqrt(a), 1e-3), a + 6 * math.sqrt(a), 41):
        assert randomness._gammaincc(a, x) == pytest.approx(
            float(special.gammaincc(a, x)), rel=REL
        )


def test_gammaincc_at_zero_is_one():
    assert randomness._gammaincc(3, 0.0) == 1.0
    assert randomness._gammaincc(3.5, 0.0) == 1.0


@given(
    a=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-10, 0),
    ).filter(lambda a: not (a > 0 and float(2 * a).is_integer()))
)
def test_gammaincc_rejects_other_a(a):
    with pytest.raises(ValueError, match="integer or half-integer"):
        randomness._gammaincc(a, 1.0)


@given(x=st.floats(-40.0, 40.0))
def test_ndtr_matches_scipy(x):
    assert _close(randomness._ndtr(x), float(special.ndtr(x)))


@given(x=st.floats(-40.0, 40.0))
def test_erfc_matches_scipy(x):
    assert _close(math.erfc(x), float(special.erfc(x)))


# ---------------------------------------------------------------------------
# scipy-based reference battery


def ref_monobit(b):
    s = abs(int(np.sum(2 * b.astype(np.int64) - 1)))
    return special.erfc(s / np.sqrt(2.0 * b.size))


def ref_block_frequency(b, block_size=16):
    n_blocks = b.size // block_size
    pi = b[: n_blocks * block_size].reshape(n_blocks, block_size).mean(axis=1)
    chi2 = 4.0 * block_size * np.sum((pi - 0.5) ** 2)
    return special.gammaincc(n_blocks / 2.0, chi2 / 2.0)


def ref_runs(b):
    n, pi = b.size, b.mean()
    if abs(pi - 0.5) >= 2.0 / np.sqrt(n):
        return 0.0
    v = 1 + np.count_nonzero(np.diff(b))
    return special.erfc(
        abs(v - 2.0 * n * pi * (1 - pi)) / (2.0 * np.sqrt(2.0 * n) * pi * (1 - pi))
    )


def ref_longest_run(b):
    if b.size >= 128:
        block_size, lo = 128, 4
        probs = [0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124]
    else:
        block_size, lo = 8, 1
        probs = [0.2148, 0.3672, 0.2305, 0.1875]
    n_blocks = b.size // block_size
    hi = lo + len(probs) - 1
    counts = np.zeros(len(probs))
    for block in b[: n_blocks * block_size].reshape(n_blocks, block_size):
        longest = max(
            (len(list(g)) for bit, g in itertools.groupby(block) if bit), default=0
        )
        counts[min(max(longest, lo), hi) - lo] += 1
    expected = n_blocks * np.asarray(probs)
    chi2 = np.sum((counts - expected) ** 2 / expected)
    return special.gammaincc((len(probs) - 1) / 2.0, chi2 / 2.0)


def _pattern_counts(b, m):
    """Counts of the 2**m overlapping m-bit patterns, wrapping around."""
    ext = np.concatenate([b, b[: m - 1]]).astype(np.int64)
    codes = sum(ext[i : i + b.size] << (m - 1 - i) for i in range(m))
    return np.bincount(codes, minlength=2**m)


def _psi2(b, m):
    if m == 0:
        return 0.0
    counts = _pattern_counts(b, m).astype(np.float64)
    return (2**m / b.size) * np.sum(counts**2) - b.size


def ref_serial(b, m=3):
    return special.gammaincc(2 ** (m - 2), (_psi2(b, m) - _psi2(b, m - 1)) / 2.0)


def ref_approximate_entropy(b, m=2):
    def phi(mm):
        if mm == 0:
            return 0.0
        counts = _pattern_counts(b, mm)
        c = counts[counts > 0] / b.size
        return np.sum(c * np.log(c))

    chi2 = 2.0 * b.size * (np.log(2.0) - (phi(m) - phi(m + 1)))
    return special.gammaincc(2 ** (m - 1), chi2 / 2.0)


def ref_cumulative_sums(b):
    n = b.size
    z = int(np.abs(np.cumsum(2 * b.astype(np.int64) - 1)).max())
    if z == 0:
        return 1.0
    r = np.sqrt(n)
    total = 0.0
    for k in range(int((-n / z + 1) // 4), int((n / z - 1) // 4) + 1):
        total += special.ndtr((4 * k + 1) * z / r) - special.ndtr((4 * k - 1) * z / r)
    for k in range(int((-n / z - 3) // 4), int((n / z - 1) // 4) + 1):
        total -= special.ndtr((4 * k + 3) * z / r) - special.ndtr((4 * k + 1) * z / r)
    return max(0.0, min(1.0, 1.0 - total))


PAIRS = [
    (randomness.monobit_test, ref_monobit),
    (randomness.block_frequency_test, ref_block_frequency),
    (randomness.runs_test, ref_runs),
    (randomness.longest_run_test, ref_longest_run),
    (randomness.serial_test, ref_serial),
    (randomness.approximate_entropy_test, ref_approximate_entropy),
    (randomness.cumulative_sums_test, ref_cumulative_sums),
]


@pytest.mark.parametrize(
    "test_fn, ref_fn", PAIRS, ids=[fn.__name__ for fn, _ in PAIRS]
)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_bits=st.integers(128, 20_000),
    p_one=st.sampled_from([0.5, 0.5, 0.48, 0.45, 0.4]),
)
def test_battery_matches_scipy_reference(test_fn, ref_fn, seed, n_bits, p_one):
    bits = (np.random.default_rng(seed).random(n_bits) < p_one).astype(np.uint8)
    ref = float(ref_fn(bits))
    # cumulative sums ends in 1 - sum(ndtr differences): an absolute
    # cancellation, so it is held to an absolute bound as well
    assert _close(test_fn(bits), ref, abs_tol=1e-14)


def test_approximate_entropy_m0_matches_reference():
    bits = (np.random.default_rng(5).random(4_000) < 0.5).astype(np.uint8)
    assert _close(
        randomness.approximate_entropy_test(bits, m=0),
        float(ref_approximate_entropy(bits, m=0)),
    )

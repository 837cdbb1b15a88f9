"""``binom_sf`` against the exact binomial tail.

``p`` is a double, so ``p = a / d`` exactly (``float.as_integer_ratio``)
and ``P[Binomial(n, p) > k]`` is the integer ``sum_{i > k} C(n, i) a^i
(d - a)^(n - i)`` over ``d^n``.  Python's integer true division rounds
that quotient correctly, which makes it the oracle: scipy is not one in
the deep tail.  At ``k = 110, n = 127, p = 0.0013422822216691982`` the
exact tail is 1.2402405601471261e-299 and ``scipy.stats.binom.sf``
returns 1.2311604095266298e-299 (0.7 % off); at ``k = 127, n = 255, p =
0.5`` the tail is exactly 0.5 and scipy returns three ULPs above it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import standard_codes
from repro.ecc.repetition import MAX_N, binom_sf
from repro.keygen.design import DEFAULT_REPETITIONS


def exact_tails(n: int, p: float) -> list:
    """The correctly rounded ``P[X > k]`` for ``k = 0 .. n``."""
    a, d = float(p).as_integer_ratio()
    b = d - a
    if b == 0:  # p == 1
        return [1.0] * n + [0.0]
    # T_i = C(n, i) a^i b^(n - i), each from the one before, exactly
    terms = [b**n]
    for i in range(1, n + 1):
        terms.append(terms[-1] * (n - i + 1) * a // (i * b))
    denominator = d**n
    tails = []
    tail = 0
    for term in reversed(terms):
        tails.append(tail / denominator)
        tail += term
    return tails[::-1]


def assert_close(got, want, rel=1e-12):
    assert abs(got - want) <= rel * want, (got, want)


EDGE_P = st.sampled_from([0.0, 1e-300, 0.5, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 300),
    p=st.one_of(st.floats(0.0, 1.0), EDGE_P),
    data=st.data(),
)
def test_within_1e_12_of_the_exact_tail(n, p, data):
    k = data.draw(st.integers(0, n))
    want = exact_tails(n, p)
    every_k = binom_sf(np.arange(n + 1), n, p)
    one_k = binom_sf(k, n, p)
    assert np.shape(one_k) == () and every_k.shape == (n + 1,)
    assert np.all((every_k >= 0.0) & (every_k <= 1.0))
    assert every_k[n] == 0.0
    # elementwise: a tail does not depend on the other k of the call
    assert float(one_k).hex() == float(every_k[k]).hex()
    if want[k] >= 1e-300:
        assert_close(float(one_k), want[k])
    else:
        assert one_k <= 1e-290


@pytest.mark.parametrize("p", [1e-9, 1e-3, 0.077, 0.32, 0.45, 0.5, 0.9])
def test_n_1023_every_k(p):
    """E6's longest outer code: every tail of n = 1023 at once."""
    want = exact_tails(1023, p)
    got = binom_sf(np.arange(1024), 1023, p)
    for k in range(1024):
        if want[k] >= 1e-300:
            assert_close(float(got[k]), want[k])
        else:
            assert got[k] <= 1e-290


def test_deep_tail_where_scipy_is_off():
    got = float(binom_sf(110, 127, 0.0013422822216691982))
    assert_close(got, 1.2402405601471261e-299)
    assert_close(got, exact_tails(127, 0.0013422822216691982)[110])


@pytest.mark.parametrize("n", [1, 31, 127, 255, 1023])
def test_exact_ties_stay_exact(n):
    """An odd ``n`` at ``p = 1/2`` splits the mass evenly: the tail
    above ``(n - 1) / 2`` is exactly one half, the sum of the two
    symmetric tails exactly one."""
    half = (n - 1) // 2
    assert binom_sf(half, n, 0.5) == 0.5
    k = np.arange(n)
    assert np.all(binom_sf(k, n, 0.5) + binom_sf(n - 1 - k, n, 0.5) == 1.0)


def test_nan_outside_the_support():
    got = binom_sf([-1, 0, 3, 4], 3, 0.3)
    assert np.isnan(got[0]) and np.isnan(got[3])
    assert np.all(np.isnan(binom_sf(1, 3, [-0.1, 1.1, np.nan])))
    assert binom_sf(0, 0, 0.3) == 0.0
    assert binom_sf(2, 3, 0.0) == 0.0 and binom_sf(2, 3, 1.0) == 1.0


def test_n_beyond_the_working_range_is_refused():
    with pytest.raises(ValueError, match="supports n"):
        binom_sf(0, MAX_N + 1, 0.5)


def test_every_grid_cell_equals_a_one_value_call():
    """The E6 grid, ``(len(q), len(codes))`` over the whole standard
    palette, where many codes share ``n`` with different ``t``: each
    cell is the same bits as a call that asks for that tail alone."""
    codes = standard_codes()
    t = np.array([c.t for c in codes])
    n = np.array([c.n for c in codes])
    assert len(set(n.tolist())) < len(codes)
    q = np.array([0.0, 1e-6, 0.01, 0.077, 0.2, 0.45, 0.5])
    grid = binom_sf(t, n, q[:, np.newaxis])
    assert grid.shape == (len(q), len(codes))
    for i, qi in enumerate(q):
        for j, (tj, nj) in enumerate(zip(t, n)):
            assert float(grid[i, j]).hex() == float(binom_sf(tj, nj, qi)).hex()


def test_working_precision_is_extended():
    """The package's numbers are verified bit for bit (the golden
    tables, the ledger scalars) only where ``np.longdouble`` carries at
    least the x87 64-bit mantissa, as on x86-64 Linux.  Where it is a
    double (MSVC, Apple silicon) ``binom_sf`` holds about 1e-13
    relative, ``MAX_N`` is 1023, and the E6 table is not verified."""
    nmant = np.finfo(np.longdouble).nmant
    assert nmant >= 63, (
        f"np.longdouble has a {nmant}-bit mantissa; binom_sf's bit-for-bit "
        "results assume x87 extended precision or wider"
    )
    assert MAX_N >= 16383


def test_agrees_with_scipy_on_the_search_grid():
    """scipy stays a loose cross-check: 1e-12 relative on the repetition
    and outer-code grids of the design search, where its tail exceeds
    1e-250."""
    stats = pytest.importorskip("scipy.stats")
    r = np.asarray(DEFAULT_REPETITIONS, dtype=np.int64)
    codes = standard_codes()
    t = np.array([c.t for c in codes])
    n = np.array([c.n for c in codes])
    for p in (1e-4, 0.077, 0.125, 0.32, 0.45):
        q = binom_sf((r - 1) // 2, r, p)
        cells = [((r - 1) // 2, r, p), (t, n, q[:, np.newaxis])]
        for k_, n_, p_ in cells:
            ours = binom_sf(k_, n_, p_)
            theirs = stats.binom.sf(k_, n_, p_)
            keep = theirs > 1e-250
            assert keep.any()
            assert np.allclose(ours[keep], theirs[keep], rtol=1e-12, atol=0.0)

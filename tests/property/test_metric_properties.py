"""Property-based tests: metric definitions (bounds, symmetry, identities)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    bit_aliasing,
    fractional_hd,
    hamming_distance,
    pairwise_fractional_hd,
    uniformity_of,
)

bitvec = st.lists(st.integers(0, 1), min_size=1, max_size=64).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


def paired_bitvecs():
    return st.integers(1, 64).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    )


class TestHammingProperties:
    @given(pair=paired_bitvecs())
    def test_symmetry(self, pair):
        a, b = (np.array(x, dtype=np.uint8) for x in pair)
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(a=bitvec)
    def test_identity(self, a):
        assert hamming_distance(a, a) == 0

    @given(pair=paired_bitvecs())
    def test_bounds(self, pair):
        a, b = (np.array(x, dtype=np.uint8) for x in pair)
        assert 0 <= hamming_distance(a, b) <= a.size
        assert 0.0 <= fractional_hd(a, b) <= 1.0

    @given(pair=paired_bitvecs())
    def test_complement_relation(self, pair):
        a, b = (np.array(x, dtype=np.uint8) for x in pair)
        assert fractional_hd(a, 1 - b) == pytest.approx(1.0 - fractional_hd(a, b))

    @given(
        trip=st.integers(1, 32).flatmap(
            lambda n: st.tuples(
                *(
                    st.lists(st.integers(0, 1), min_size=n, max_size=n)
                    for _ in range(3)
                )
            )
        )
    )
    def test_triangle_inequality(self, trip):
        a, b, c = (np.array(x, dtype=np.uint8) for x in trip)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestPopulationMetricProperties:
    responses = st.integers(2, 8).flatmap(
        lambda n_chips: st.integers(4, 32).flatmap(
            lambda width: st.lists(
                st.lists(st.integers(0, 1), min_size=width, max_size=width),
                min_size=n_chips,
                max_size=n_chips,
            )
        )
    )

    @given(rs=responses)
    @settings(max_examples=50)
    def test_pairwise_count_and_bounds(self, rs):
        mat = np.array(rs, dtype=np.uint8)
        dists = pairwise_fractional_hd(mat)
        n = mat.shape[0]
        assert dists.shape == (n * (n - 1) // 2,)
        assert np.all((0.0 <= dists) & (dists <= 1.0))

    @given(rs=responses)
    @settings(max_examples=50)
    def test_aliasing_bounds(self, rs):
        mat = np.array(rs, dtype=np.uint8)
        report = bit_aliasing(mat)
        assert np.all((0.0 <= report.per_bit) & (report.per_bit <= 1.0))
        assert 0.0 <= report.worst_bias <= 0.5

    @given(a=bitvec)
    def test_uniformity_complement(self, a):
        assert uniformity_of(a) == pytest.approx(1.0 - uniformity_of(1 - a))


@settings(max_examples=60, deadline=None)
@given(
    n_chips=st.integers(1, 60),
    n_bits=st.sampled_from([1, 3, 64, 128, 255]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_reliability_of_response_matrices_is_the_chip_loop(n_chips, n_bits, p, seed):
    """E5 and E9 hand ``reliability`` response matrices (its counts fast
    path) where they once handed lists of rows (its per-chip loop); every
    field of the report is the same float, word for word."""
    from repro.metrics.reliability import reliability

    gen = np.random.default_rng(seed)
    goldens = gen.integers(0, 2, size=(n_chips, n_bits), dtype=np.uint8)
    observed = goldens ^ (gen.random((n_chips, n_bits)) < p).astype(np.uint8)
    fast = reliability(goldens, observed)
    loop = reliability(list(goldens), list(observed))
    for field in ("mean_flip_fraction", "std_flip_fraction", "worst_flip_fraction"):
        assert getattr(fast, field).hex() == getattr(loop, field).hex()
    assert fast.per_chip.tobytes() == loop.per_chip.tobytes()

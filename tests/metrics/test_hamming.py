"""Hamming-distance primitives."""

import numpy as np
import pytest

from repro.metrics import (
    fractional_hd,
    hamming_distance,
    hd_matrix,
    pairwise_fractional_hd,
)


class TestHammingDistance:
    def test_identical(self):
        assert hamming_distance([0, 1, 1], [0, 1, 1]) == 0

    def test_all_different(self):
        assert hamming_distance([0, 1, 0], [1, 0, 1]) == 3

    def test_symmetric(self):
        a, b = [0, 1, 1, 0], [1, 1, 0, 0]
        assert hamming_distance(a, b) == hamming_distance(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hamming_distance([0, 1], [0, 1, 1])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            hamming_distance([0, 2], [0, 1])


class TestFractionalHd:
    def test_half(self):
        assert fractional_hd([0, 0, 1, 1], [0, 1, 1, 0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fractional_hd([], [])

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ([0, 2], [0, 1], "0/1"),
            ([], [2], "empty"),
            ([0, 1], [0, 2], "0/1"),
            ([0, 1], [0, 1, 1], "mismatch"),
        ],
    )
    def test_errors_in_operand_order(self, a, b, message):
        with pytest.raises(ValueError, match=message):
            fractional_hd(a, b)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, 2], dtype=np.uint8),
            np.array([0, 255], dtype=np.uint8),
            np.array([0, -1], dtype=np.int64),
            np.array([0.0, 0.5]),
        ],
        ids=["uint8-2", "uint8-255", "int64-minus-1", "float-half"],
    )
    def test_non_bits_refused_in_every_dtype(self, bad):
        good = np.zeros(2, dtype=bad.dtype)
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="0/1"):
                fractional_hd(a, b)
            with pytest.raises(ValueError, match="0/1"):
                hamming_distance(a, b)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.bool_, np.int64, np.float64])
    def test_bits_accepted_in_every_dtype(self, dtype):
        a = np.array([0, 1, 1, 0], dtype=dtype)
        b = np.array([1, 1, 0, 0], dtype=dtype)
        assert fractional_hd(a, b) == 0.5
        # an empty operand has no maximum, but holds no non-bit either
        assert hamming_distance(a[:0], b[:0]) == 0

    def test_each_operand_validated_once(self, monkeypatch):
        from repro.metrics import hamming

        seen = []
        real = hamming._as_bits
        monkeypatch.setattr(
            hamming, "_as_bits", lambda x: seen.append(x) or real(x)
        )
        a, b = np.array([0, 1, 1]), np.array([1, 1, 0])
        assert fractional_hd(a, b) == pytest.approx(2 / 3)
        assert len(seen) == 2 and seen[0] is a and seen[1] is b
        seen.clear()
        assert hamming_distance(a, b) == 2
        assert len(seen) == 2


class TestPairwise:
    def test_count(self):
        rng = np.random.default_rng(0)
        responses = rng.integers(0, 2, (6, 32))
        dists = pairwise_fractional_hd(responses)
        assert dists.shape == (15,)

    def test_values(self):
        responses = [[0, 0], [0, 1], [1, 1]]
        dists = pairwise_fractional_hd(responses)
        assert sorted(dists.tolist()) == [0.5, 0.5, 1.0]

    def test_needs_two(self):
        with pytest.raises(ValueError):
            pairwise_fractional_hd([[0, 1]])

    def test_random_responses_near_half(self):
        rng = np.random.default_rng(1)
        responses = rng.integers(0, 2, (30, 256))
        assert pairwise_fractional_hd(responses).mean() == pytest.approx(0.5, abs=0.02)


class TestMatrix:
    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(2)
        responses = rng.integers(0, 2, (5, 16))
        mat = hd_matrix(responses)
        assert np.allclose(mat, mat.T)
        assert not np.any(np.diag(mat))

    def test_matches_pairwise(self):
        rng = np.random.default_rng(3)
        responses = rng.integers(0, 2, (4, 16))
        mat = hd_matrix(responses)
        flat = pairwise_fractional_hd(responses)
        iu = np.triu_indices(4, k=1)
        assert np.allclose(mat[iu], flat)

"""Pairing schemes: disjointness, widths, challenge behaviour."""

import numpy as np
import pytest

from repro.core import (
    ChainPairing,
    DistantPairing,
    NeighborPairing,
    RandomDisjointPairing,
)
from repro.core.pairing import PairingScheme


class TestNeighborPairing:
    def test_pairs_adjacent(self):
        pairs = NeighborPairing().pairs(8)
        assert pairs.tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_odd_count_drops_last(self):
        pairs = NeighborPairing().pairs(7)
        assert pairs.shape == (3, 2)
        assert 6 not in pairs

    def test_disjoint(self):
        pairs = NeighborPairing().pairs(64)
        flat = pairs.ravel()
        assert len(set(flat.tolist())) == flat.size

    def test_n_bits(self):
        assert NeighborPairing().n_bits(256) == 128

    def test_challenge_ignored(self):
        p = NeighborPairing()
        assert np.array_equal(p.pairs(8, challenge=5), p.pairs(8, challenge=9))


class TestChainPairing:
    def test_overlapping_chain(self):
        pairs = ChainPairing().pairs(4)
        assert pairs.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_n_bits(self):
        assert ChainPairing().n_bits(256) == 255


class TestRandomDisjointPairing:
    def test_disjoint(self):
        pairs = RandomDisjointPairing().pairs(64, challenge=42)
        flat = pairs.ravel()
        assert len(set(flat.tolist())) == flat.size

    def test_challenge_changes_pairs(self):
        p = RandomDisjointPairing()
        a = p.pairs(64, challenge=1)
        b = p.pairs(64, challenge=2)
        assert not np.array_equal(a, b)

    def test_challenge_deterministic(self):
        p = RandomDisjointPairing()
        assert np.array_equal(p.pairs(64, challenge=7), p.pairs(64, challenge=7))

    def test_default_challenge(self):
        p = RandomDisjointPairing(default_challenge=3)
        assert np.array_equal(p.pairs(16), p.pairs(16, challenge=3))

    def test_negative_challenge_rejected(self):
        with pytest.raises(ValueError):
            RandomDisjointPairing().pairs(16, challenge=-1)


class TestDistantPairing:
    def test_half_array_separation(self):
        pairs = DistantPairing().pairs(8)
        assert pairs.tolist() == [[0, 4], [1, 5], [2, 6], [3, 7]]

    def test_disjoint(self):
        pairs = DistantPairing().pairs(64)
        flat = pairs.ravel()
        assert len(set(flat.tolist())) == flat.size


class TestCommon:
    @pytest.mark.parametrize(
        "scheme",
        [NeighborPairing(), ChainPairing(), RandomDisjointPairing(), DistantPairing()],
    )
    def test_indices_in_range(self, scheme):
        pairs = scheme.pairs(33)
        assert pairs.min() >= 0
        assert pairs.max() < 33

    @pytest.mark.parametrize(
        "scheme",
        [NeighborPairing(), ChainPairing(), RandomDisjointPairing(), DistantPairing()],
    )
    def test_too_few_ros_rejected(self, scheme):
        with pytest.raises(ValueError):
            scheme.pairs(1)


ALL_SCHEMES = [
    NeighborPairing(),
    ChainPairing(),
    RandomDisjointPairing(),
    RandomDisjointPairing(default_challenge=7),
    DistantPairing(),
]
#: 20 challenges: enough for block seeding (12 and up), with the None
#: default and both ends of the CRP challenge space
BLOCK = [None, 0, 2**31 - 2, 5, None, *range(100, 115)]


def _stacked(scheme, n_ros, challenges):
    return np.stack([scheme.pairs(n_ros, c) for c in challenges])


class TestPairsMany:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize(
        "challenges",
        [
            [None],
            [None, 3, None, 0],  # under 12: seeded by default_rng
            BLOCK,
            np.arange(40, dtype=np.int64) * 7919,
            [2**64, 3, 2**70 + 5, *range(20)],  # past 2**64: stacked pairs
        ],
        ids=["none", "short", "block", "int64-array", "past-2**64"],
    )
    @pytest.mark.parametrize("n_ros", [2, 33, 256])
    def test_equals_stacked_pairs(self, scheme, challenges, n_ros):
        got = scheme.pairs_many(n_ros, challenges)
        want = _stacked(scheme, n_ros, challenges)
        assert got.dtype == want.dtype
        assert got.shape == (len(challenges), scheme.n_bits(n_ros), 2)
        assert np.array_equal(got, want)

    def test_default_challenge_fills_none(self):
        scheme = RandomDisjointPairing(default_challenge=7)
        tables = scheme.pairs_many(64, BLOCK)
        assert np.array_equal(tables[0], RandomDisjointPairing().pairs(64, 7))
        assert np.array_equal(tables[0], tables[4])

    @pytest.mark.parametrize("challenges", [[3, -1], [*range(20), -5]])
    def test_negative_challenge_rejected(self, challenges):
        with pytest.raises(ValueError, match="non-negative"):
            RandomDisjointPairing().pairs_many(16, challenges)

    def test_too_few_ros_rejected(self):
        with pytest.raises(ValueError):
            RandomDisjointPairing().pairs_many(1, BLOCK)


class TestArrayWidths:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_n_bits_elementwise(self, scheme):
        sizes = np.array([[2, 3, 17], [256, 1001, 400_004]], dtype=np.int64)
        widths = scheme.n_bits(sizes)
        assert widths.shape == sizes.shape
        assert widths.tolist() == [[scheme.n_bits(int(n)) for n in row] for row in sizes]

    def test_default_counts_pairs_per_size(self):
        """A scheme that only defines ``pairs`` still answers an array of
        sizes (the design search bisects with one)."""

        class PairsOnly(PairingScheme):
            def pairs(self, n_ros, challenge=None):
                return ChainPairing().pairs(n_ros)

        sizes = np.array([2, 9, 64], dtype=np.int64)
        assert PairsOnly().n_bits(sizes).tolist() == [1, 8, 63]
        assert PairsOnly().n_bits(9) == 8

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_array_with_too_few_ros_rejected(self, scheme):
        with pytest.raises(ValueError):
            scheme.n_bits(np.array([4, 1]))

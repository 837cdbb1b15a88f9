"""Readout datapath: comparison, counters, voting."""

import numpy as np
import pytest

from repro.core import ReadoutConfig, compare_pairs, voted_response
from repro.core.readout import read_population
from repro.transistor import ptm90


@pytest.fixture(scope="module")
def tech():
    return ptm90()


@pytest.fixture(scope="module")
def config():
    return ReadoutConfig()


class TestConfig:
    def test_defaults_do_not_overflow_at_gigahertz(self, config):
        config.check_no_overflow(2.0e9)

    def test_overflow_detected(self, config):
        with pytest.raises(ValueError, match="wraps"):
            config.check_no_overflow(1e10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadoutConfig(window_s=0.0)
        with pytest.raises(ValueError):
            ReadoutConfig(counter_bits=2)


class TestComparePairs:
    def test_noiseless_sign(self, tech, config):
        freqs = np.array([1.0e9, 1.1e9, 0.9e9, 0.95e9])
        pairs = np.array([[0, 1], [2, 3], [1, 2]])
        bits = compare_pairs(freqs, pairs, tech, config)
        assert bits.tolist() == [0, 0, 1]
        assert bits.dtype == np.uint8

    def test_pair_validation(self, tech, config):
        freqs = np.array([1e9, 1e9])
        with pytest.raises(ValueError, match="shape"):
            compare_pairs(freqs, np.array([0, 1]), tech, config)
        with pytest.raises(ValueError, match="shape"):
            # per-chip tables are read_population's, not compare_pairs'
            compare_pairs(freqs[None], np.array([[[[0, 1]]]]), tech, config)
        with pytest.raises(ValueError, match="range"):
            compare_pairs(freqs, np.array([[0, 5]]), tech, config)

    def test_noisy_read_rejects_a_nan_frequency(self, tech, config):
        """One NaN oscillator fails the noisy read instead of reading as
        an arbitrary bit."""
        freqs = np.array([[1.0e9, 1.1e9, np.nan, 1.2e9]])
        pairs = np.array([[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="positive"):
            read_population(freqs, pairs, tech, config, noisy=True, rng=0)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0e9])
    def test_noiseless_read_rejects_a_non_positive_frequency(self, tech, config, bad):
        """The noiseless compare refuses what the noisy path refuses: a
        NaN compares False on either side of a pair and would read as
        bit 0 both ways round."""
        freqs = np.array([[1.0e9, 1.1e9, bad, 1.2e9]])
        pairs = np.array([[2, 3], [3, 2]])
        with pytest.raises(ValueError, match="positive"):
            read_population(freqs, pairs, tech, config)
        with pytest.raises(ValueError, match="positive"):
            compare_pairs(freqs[0], pairs, tech, config)

    def test_noisy_mode_flips_near_ties(self, tech, config):
        """A pair separated by much less than the jitter flips often."""
        freqs = np.array([1.0e9, 1.0e9 * (1 + 1e-6)])
        pairs = np.array([[0, 1]])
        outcomes = [
            int(compare_pairs(freqs, pairs, tech, config, noisy=True, rng=i)[0])
            for i in range(200)
        ]
        assert 50 < sum(outcomes) < 150

    def test_noisy_mode_respects_wide_margins(self, tech, config):
        freqs = np.array([1.05e9, 1.0e9])  # 5 % apart >> jitter
        pairs = np.array([[0, 1]])
        outcomes = [
            int(compare_pairs(freqs, pairs, tech, config, noisy=True, rng=i)[0])
            for i in range(50)
        ]
        assert sum(outcomes) == 50


class TestVotedResponse:
    def test_single_vote_equals_compare(self, tech, config):
        freqs = np.array([1.0e9, 1.001e9])
        pairs = np.array([[0, 1]])
        a = voted_response(freqs, pairs, tech, config, votes=1, rng=7)
        b = compare_pairs(freqs, pairs, tech, config, noisy=True, rng=7)
        assert np.array_equal(a, b)

    def test_votes_must_be_positive(self, tech, config):
        with pytest.raises(ValueError):
            voted_response(
                np.array([1e9, 1e9]), np.array([[0, 1]]), tech, config, votes=0
            )

    def test_voting_reduces_flip_rate(self, tech, config):
        """Majority voting on a marginal pair must beat a single read."""
        sep = 0.7e-3  # ~1 sigma of the pairwise jitter
        freqs = np.array([1.0e9 * (1 + sep), 1.0e9])
        pairs = np.array([[0, 1]])
        single = np.mean(
            [
                compare_pairs(freqs, pairs, tech, config, noisy=True, rng=i)[0]
                for i in range(300)
            ]
        )
        voted = np.mean(
            [
                voted_response(freqs, pairs, tech, config, votes=9, rng=i)[0]
                for i in range(300)
            ]
        )
        assert voted > single

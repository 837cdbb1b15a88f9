"""NIST-style randomness battery: pass truly random, fail structured."""

import numpy as np
import pytest

from repro.metrics import (
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    longest_run_test,
    monobit_test,
    population_bits,
    randomness_battery,
    runs_test,
    serial_test,
)


@pytest.fixture(scope="module")
def random_bits():
    return np.random.default_rng(42).integers(0, 2, 20_000)


@pytest.fixture(scope="module")
def biased_bits():
    rng = np.random.default_rng(43)
    return (rng.random(20_000) < 0.7).astype(np.uint8)


@pytest.fixture(scope="module")
def alternating_bits():
    return np.tile([0, 1], 10_000)


ALL_TESTS = [
    monobit_test,
    block_frequency_test,
    runs_test,
    longest_run_test,
    serial_test,
    approximate_entropy_test,
    cumulative_sums_test,
]


class TestRandomInputPasses:
    @pytest.mark.parametrize("test_fn", ALL_TESTS)
    def test_random_sequence_passes(self, test_fn, random_bits):
        assert test_fn(random_bits) >= 0.01


class TestStructuredInputFails:
    def test_biased_fails_monobit(self, biased_bits):
        assert monobit_test(biased_bits) < 0.01

    def test_biased_fails_block_frequency(self, biased_bits):
        assert block_frequency_test(biased_bits) < 0.01

    def test_alternating_fails_runs(self, alternating_bits):
        assert runs_test(alternating_bits) < 0.01

    def test_alternating_fails_serial(self, alternating_bits):
        assert serial_test(alternating_bits) < 0.01

    def test_alternating_fails_entropy(self, alternating_bits):
        assert approximate_entropy_test(alternating_bits) < 0.01

    def test_long_runs_fail_longest_run(self):
        # balanced (passes monobit) but every 128-bit block carries a
        # 32-long run — wildly improbable for random data
        bits = np.tile([1] * 32 + [0] * 32, 312)
        assert longest_run_test(bits) < 0.01

    def test_drift_fails_cusum(self):
        rng = np.random.default_rng(45)
        bits = (rng.random(20_000) < 0.52).astype(np.uint8)  # slight drift
        assert cumulative_sums_test(bits) < 0.01


class TestEdgeCases:
    def test_all_p_values_in_unit_interval(self, random_bits, biased_bits):
        for bits in (random_bits, biased_bits):
            for fn in ALL_TESTS:
                assert 0.0 <= fn(bits) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            monobit_test([])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            monobit_test([0, 1, 2])

    def test_negative_entropy_order_rejected(self, random_bits):
        with pytest.raises(ValueError, match="m must be non-negative"):
            approximate_entropy_test(random_bits, m=-1)

    def test_short_sequence_longest_run_fallback(self):
        bits = np.random.default_rng(0).integers(0, 2, 64)
        assert 0.0 <= longest_run_test(bits) <= 1.0


class TestBattery:
    def test_random_passes_battery(self, random_bits):
        report = randomness_battery(random_bits)
        assert len(report.p_values) == 7
        assert report.all_passed()

    def test_biased_fails_battery(self, biased_bits):
        report = randomness_battery(biased_bits)
        assert not report.all_passed()
        passed = report.passed()
        assert not passed["monobit"]

    def test_population_bits_concatenates(self):
        bits = population_bits([[0, 1], [1, 1]])
        assert bits.tolist() == [0, 1, 1, 1]

"""Percentiles are reported only with enough samples beyond them."""

import statistics

import pytest

import stats


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 0.5) == 50
    assert stats.percentile(samples, 0.99) == 99
    assert stats.percentile(samples, 1.0) == 100
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


@pytest.mark.parametrize(
    "n, q, supported",
    [
        (1000, 0.99, True),  # 10 samples beyond p99
        (999, 0.99, False),  # 9 beyond
        (100, 0.9, True),
        (99, 0.9, False),
        (20, 0.5, True),
        (19, 0.5, False),
        (0, 0.5, False),
    ],
)
def test_sample_count_rule(n, q, supported):
    assert stats.supported(n, q) is supported
    value = stats.supported_percentile([float(i) for i in range(n)], q)
    assert (value is not None) is supported


def test_relative_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.8, 9.7, 10.3]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / mid)
    assert stats.relative_spread([5.0]) == 0.0

"""Streaming histograms: error bound, mergeability, serialisation."""

import math

import numpy as np
import pytest

from repro.telemetry import Tracer
from repro.telemetry.histogram import (
    GROWTH,
    Histogram,
    QUANTILE_RELATIVE_ERROR,
    flatten_summaries,
    summarise,
)


class TestErrorBound:
    def test_documented_bound_is_under_five_percent(self):
        assert QUANTILE_RELATIVE_ERROR == pytest.approx(math.sqrt(GROWTH) - 1)
        assert QUANTILE_RELATIVE_ERROR < 0.05

    @pytest.mark.parametrize("q", [0.50, 0.95, 0.99])
    def test_quantiles_within_bound_on_lognormal(self, q):
        """The advertised <=5 % contract, checked against exact numpy
        percentiles on a heavy-tailed latency-like distribution."""
        rng = np.random.default_rng(42)
        values = rng.lognormal(mean=-7.0, sigma=1.5, size=20_000)
        hist = Histogram()
        for value in values:
            hist.observe(value)
        exact = float(np.percentile(values, q * 100.0))
        got = hist.quantile(q)
        assert abs(got - exact) / exact <= QUANTILE_RELATIVE_ERROR + 1e-9

    def test_extremes_and_count_are_exact(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(size=500)
        hist = Histogram()
        for value in values:
            hist.observe(value)
        assert hist.count == len(hist) == 500
        assert hist.min == values.min()
        assert hist.max == values.max()
        assert hist.mean == pytest.approx(values.mean())
        assert hist.quantile(1.0) == values.max()
        assert hist.quantile(0.0) == values.min()


class TestMerge:
    def test_split_merge_equals_single(self):
        """Folding shard histograms equals observing everything in one —
        the cross-worker quantile guarantee (exact, not just close)."""
        rng = np.random.default_rng(3)
        values = rng.lognormal(sigma=2.0, size=4_000)
        single = Histogram()
        for value in values:
            single.observe(value)
        shards = [Histogram() for _ in range(4)]
        for shard, chunk in zip(shards, np.array_split(values, 4)):
            for value in chunk:
                shard.observe(value)
        merged = Histogram()
        for shard in shards:
            merged.merge(shard)
        assert merged.buckets == single.buckets
        assert merged.count == single.count
        assert merged.min == single.min and merged.max == single.max
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == single.quantile(q)

    def test_merge_empty_into_live_is_identity(self):
        live = Histogram()
        for value in [1.0, 2.0, 3.0]:
            live.observe(value)
        before = live.to_dict()
        live.merge(Histogram())
        assert live.to_dict() == before

    def test_merge_live_into_empty_equals_source(self):
        src = Histogram()
        for value in [0.5, 4.0]:
            src.observe(value)
        sink = Histogram()
        sink.merge(src)
        assert sink.to_dict() == src.to_dict()

    def test_merge_two_empties_stays_empty(self):
        a = Histogram()
        a.merge(Histogram())
        assert a.count == 0
        assert math.isnan(a.quantile(0.5))

    def test_from_dict_round_trip_after_merge(self):
        """A merged state must survive serialisation bit-for-bit — the
        perf ledger recomputes quantiles from exactly this round trip."""
        a, b = Histogram(), Histogram()
        for value in [1e-6, 3.0, 3.0]:
            a.observe(value)
        for value in [0.0, -1.0, 7.5]:
            b.observe(value)
        a.merge(b)
        back = Histogram.from_dict(a.to_dict())
        assert back.to_dict() == a.to_dict()
        for q in (0.5, 0.95, 0.99):
            assert back.quantile(q) == a.quantile(q)

    def test_merge_accepts_serialised_form_via_tracer(self):
        a, b = Histogram(), Histogram()
        for value in [1.0, 2.0]:
            a.observe(value)
        for value in [4.0, 8.0]:
            b.observe(value)
        tr = Tracer()
        tr.merge_histogram("m", a.to_dict())
        tr.merge_histogram("m", b.to_dict())
        assert tr.histograms["m"].count == 4
        assert tr.histograms["m"].max == 8.0


class TestSerialisation:
    def test_roundtrip_exact(self):
        hist = Histogram()
        for value in [0.0, -1.0, 1e-6, 3.5e-3, 0.2, 0.2, 7.0]:
            hist.observe(value)
        back = Histogram.from_dict(hist.to_dict())
        assert back.buckets == hist.buckets
        assert back.count == hist.count
        assert back.total == hist.total
        assert back.min == hist.min and back.max == hist.max
        assert back.n_zero == hist.n_zero

    def test_growth_mismatch_rejected(self):
        d = Histogram().to_dict()
        d["growth"] = GROWTH * 1.01
        with pytest.raises(ValueError, match="layout mismatch"):
            Histogram.from_dict(d)
        d["growth"] = None
        with pytest.raises(ValueError, match="layout mismatch"):
            Histogram.from_dict(d)

    def test_empty_roundtrip(self):
        back = Histogram.from_dict(Histogram().to_dict())
        assert back.count == 0
        assert math.isnan(back.quantile(0.5))


class TestEdgeCases:
    def test_nonpositive_values_land_in_zero_bucket(self):
        hist = Histogram()
        for value in [0.0, -2.0, 5.0]:
            hist.observe(value)
        assert hist.n_zero == 2
        assert hist.count == 3
        assert hist.min == -2.0
        # a rank inside the underflow bucket reports the exact minimum
        assert hist.quantile(0.5) == -2.0

    def test_empty_histogram_quantile_nan(self):
        hist = Histogram()
        assert math.isnan(hist.quantile(0.5))
        summary = hist.summary()
        assert summary["count"] == 0.0
        assert math.isnan(summary["p99"])

    def test_single_value_all_quantiles_exact(self):
        hist = Histogram()
        hist.observe(0.125)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 0.125

    def test_single_bucket_quantile_within_documented_bound(self):
        """Observations crowded into ONE log bucket: the interior
        quantile estimate may sit anywhere in the bucket, but must stay
        within the documented <=5 % relative error of every true value."""
        lo = 1.0e-3
        hi = lo * (1.0 + QUANTILE_RELATIVE_ERROR)  # same bucket by design
        values = [lo, (lo + hi) / 2.0, hi]
        hist = Histogram()
        for value in values:
            hist.observe(value)
        assert len(hist.buckets) == 1
        got = hist.quantile(0.5)
        for true in values:
            assert abs(got - true) / true <= QUANTILE_RELATIVE_ERROR + 1e-9


class TestSummaries:
    def test_summarise_sorted_by_name(self):
        hists = {"b": Histogram(), "a": Histogram()}
        hists["a"].observe(1.0)
        hists["b"].observe(2.0)
        assert list(summarise(hists)) == ["a", "b"]

    def test_flatten_drops_non_finite(self):
        hists = {"live": Histogram(), "empty": Histogram()}
        for value in [1.0, 2.0]:
            hists["live"].observe(value)
        flat = flatten_summaries(hists)
        assert flat["live.count"] == 2.0
        assert flat["live.p50"] > 0.0
        # the empty histogram's NaN mean/quantiles must not leak
        assert all(math.isfinite(v) for v in flat.values())
        assert "empty.mean" not in flat

    def test_flatten_quantile_filter(self):
        hists = {"m": Histogram()}
        hists["m"].observe(1.0)
        flat = flatten_summaries(hists, quantiles=("p99",))
        assert list(flat) == ["m.p99"]

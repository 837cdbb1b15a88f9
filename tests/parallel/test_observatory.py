"""Cross-process observability: worker lanes, clock rebasing, histograms."""

import time

import pytest

from repro import aro_design, telemetry
from repro.core.population import make_batch_study
from repro.parallel.worker import EvalRequest, evaluate_shard
from repro.telemetry.chrome import chrome_trace_events
from repro.telemetry.histogram import flatten_summaries

DESIGN = aro_design(n_ros=16, n_stages=3)
SEED = 987


@pytest.fixture(autouse=True)
def clean_slate():
    telemetry.uninstall()
    yield
    telemetry.uninstall()


@pytest.fixture(scope="module")
def traced_parallel_run():
    """One jobs=2 sweep under a coordinator tracer, folded reports and all."""
    telemetry.uninstall()
    with make_batch_study(DESIGN, 8, rng=SEED, jobs=2) as par:
        with telemetry.session() as tracer:
            par.frequencies(t_years=0.0)
            par.frequencies(t_years=10.0)
    return tracer


class TestShardReportWire:
    """The worker's reply carries its span forest, histograms and clock."""

    def test_report_sections(self):
        with make_batch_study(DESIGN, 4, rng=SEED, jobs=2) as par:
            spec = par._executor._specs[0]
        report = evaluate_shard(
            "test-token", spec, 0, [EvalRequest("frequencies", 0.0)]
        )
        assert report.clock is not None and len(report.clock) == 2
        assert report.spans, "worker span forest missing from the report"
        names = {d["name"] for d in report.spans}
        assert "parallel.fabricate_shard" in names
        for d in report.spans:
            assert d["end_ns"] >= d["start_ns"]
        assert "batch.block_s" in report.histograms
        assert report.histograms["batch.block_s"]["count"] >= 1


class TestWorkerLanes:
    def test_one_lane_per_worker(self, traced_parallel_run):
        lanes = traced_parallel_run.remote_lanes
        assert set(lanes) == {"worker-0", "worker-1"}
        for spans in lanes.values():
            assert spans, "a worker lane folded in empty"

    def test_lane_spans_rebased_into_coordinator_window(
        self, traced_parallel_run
    ):
        """The clock handshake puts worker spans on the coordinator's
        perf timeline: inside [tracer construction, now]."""
        tracer = traced_parallel_run
        now_ns = time.perf_counter_ns()
        slack_ns = 1_000_000_000  # wall-clock read skew is µs; be generous
        for spans in tracer.remote_lanes.values():
            for sp in spans:
                assert sp.start_ns >= tracer.perf0_ns - slack_ns
                assert sp.end_ns <= now_ns + slack_ns
                assert sp.end_ns >= sp.start_ns

    def test_chrome_export_renders_lanes_not_synthetic_summaries(
        self, traced_parallel_run
    ):
        events = chrome_trace_events(traced_parallel_run)
        slices = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        # the folded per-shard summary spans are synthetic duplicates of
        # the real lanes; the timeline must show only clock-valid spans
        assert "parallel.shard" not in names
        lane_meta = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"coordinator", "worker-0", "worker-1"} <= lane_meta
        worker_tids = {e["tid"] for e in slices if e["tid"] != 0}
        assert worker_tids == {1, 2}

    def test_synthetic_summaries_still_in_terminal_tree(
        self, traced_parallel_run
    ):
        shard_spans = [
            c
            for root in traced_parallel_run.roots
            for c in root.children
            if c.name == "parallel.shard"
        ]
        assert len(shard_spans) == 4  # 2 shards x 2 corners
        assert all(s.attrs.get("synthetic") for s in shard_spans)


def _forest_totals(spans):
    """``{name: (duration_ns, calls)}`` over every span of a forest."""
    totals = {}
    stack = list(spans)
    while stack:
        span = stack.pop()
        duration, calls = totals.get(span.name, (0, 0))
        totals[span.name] = (duration + span.duration_ns, calls + 1)
        stack.extend(span.children)
    return totals


class TestShardSummaries:
    def test_summary_children_total_the_worker_lane(self, traced_parallel_run):
        """The terminal tree's per-shard summary children are built from
        the same forest as the worker lane: per name, their ``calls``
        and durations add up to the lane's totals."""
        tracer = traced_parallel_run
        shard_spans = [
            c
            for root in tracer.roots
            for c in root.children
            if c.name == "parallel.shard"
        ]
        for k in (0, 1):
            summed = {}
            for shard in shard_spans:
                if shard.attrs["shard"] != k:
                    continue
                for child in shard.children:
                    duration, calls = summed.get(child.name, (0, 0))
                    summed[child.name] = (
                        duration + child.duration_ns,
                        calls + child.attrs["calls"],
                    )
            lane_totals = _forest_totals(tracer.remote_lanes[f"worker-{k}"])
            assert summed == lane_totals
            assert "parallel.fabricate_shard" in summed


class TestMergedHistograms:
    def test_worker_kernel_latencies_fold_into_coordinator(
        self, traced_parallel_run
    ):
        hists = traced_parallel_run.histograms
        assert "batch.block_s" in hists
        assert "batch.corner_s" in hists
        # 2 shards x 2 corners, at least one block each
        assert hists["batch.corner_s"].count == 4
        assert hists["batch.block_s"].count >= 4

    def test_quantiles_lie_inside_exact_extremes(self, traced_parallel_run):
        """Merged quantiles obey the same bound as a single histogram:
        the bucket layout is shared, so merging adds no error (the exact
        split-merge identity is unit-tested in test_histogram)."""
        hist = traced_parallel_run.histograms["batch.block_s"]
        for q in (0.5, 0.95, 0.99):
            assert hist.min <= hist.quantile(q) <= hist.max

    def test_summaries_surface_through_tracer(self, traced_parallel_run):
        summaries = traced_parallel_run.histogram_summaries()
        assert summaries["batch.block_s"]["count"] >= 4.0
        flat = flatten_summaries(traced_parallel_run.histograms)
        assert "batch.block_s.p99" in flat

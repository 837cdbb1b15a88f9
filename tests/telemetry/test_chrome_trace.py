"""Chrome trace_event export: lanes, error spans, synthetic skip, counters."""

import json

import pytest

from repro.telemetry import Span, Tracer
from repro.telemetry.chrome import (
    MAIN_TID,
    TRACE_PID,
    chrome_trace_dict,
    chrome_trace_events,
    write_chrome_trace,
)


def _slices(events):
    return [e for e in events if e["ph"] == "X"]


@pytest.fixture
def traced():
    tr = Tracer()
    with tr.span("experiment.e2"):
        with tr.span("batch.frequencies", t_years=10.0):
            pass
    return tr


class TestSpanEvents:
    def test_complete_events_per_span(self, traced):
        events = chrome_trace_events(traced)
        slices = _slices(events)
        assert [e["name"] for e in slices] == [
            "experiment.e2",
            "batch.frequencies",
        ]
        for e in slices:
            assert e["pid"] == TRACE_PID and e["tid"] == MAIN_TID
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0

    def test_timestamps_relative_to_handshake(self, traced):
        """ts is µs since the tracer's construction — near zero, not the
        raw perf_counter epoch."""
        slices = _slices(chrome_trace_events(traced))
        assert all(e["ts"] < 60e6 for e in slices)  # within a minute

    def test_attrs_become_args(self, traced):
        sl = _slices(chrome_trace_events(traced))[1]
        assert sl["args"] == {"t_years": 10.0}

    def test_metadata_names_the_coordinator_lane(self, traced):
        events = chrome_trace_events(traced)
        meta = {
            (e["name"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M"
        }
        assert meta[("process_name", MAIN_TID)] == "repro run"
        assert meta[("thread_name", MAIN_TID)] == "coordinator"


class TestErrorSpans:
    def test_raising_span_exported_with_error_cat(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        (sl,) = _slices(chrome_trace_events(tr))
        assert sl["cat"] == "error"
        assert sl["args"]["error"] is True


class TestSyntheticSpans:
    def test_synthetic_spans_skipped(self):
        """The coordinator's per-shard summary spans carry no clock-valid
        timestamps; the timeline must not show them."""
        tr = Tracer()
        with tr.span("real"):
            with tr.span("shard-summary", synthetic=True):
                with tr.span("child-of-synthetic"):
                    pass
        names = [e["name"] for e in _slices(chrome_trace_events(tr))]
        assert names == ["real"]


class TestRemoteLanes:
    def _lane_span(self, name, start_ns, end_ns):
        sp = Span(name)
        sp.start_ns = start_ns
        sp.end_ns = end_ns
        return sp

    def test_one_tid_per_lane_sorted_by_label(self):
        tr = Tracer()
        t0 = tr.perf0_ns
        tr.add_remote_lane("worker-1", [self._lane_span("b", t0 + 200, t0 + 300)])
        tr.add_remote_lane("worker-0", [self._lane_span("a", t0 + 100, t0 + 400)])
        events = chrome_trace_events(tr)
        lanes = {
            e["args"]["name"]: e["tid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lanes["coordinator"] == MAIN_TID
        assert lanes["worker-0"] == 1
        assert lanes["worker-1"] == 2
        by_name = {e["name"]: e for e in _slices(events)}
        assert by_name["a"]["tid"] == 1
        assert by_name["b"]["tid"] == 2
        assert by_name["a"]["ts"] == pytest.approx(0.1)
        assert by_name["a"]["dur"] == pytest.approx(0.3)


    def test_numeric_lane_tails_sort_naturally(self):
        """req-2 must come before req-10: lexicographic order scrambles
        Perfetto rows exactly when request concurrency passes ten."""
        tr = Tracer()
        t0 = tr.perf0_ns
        for k in (10, 2, 0):
            tr.add_remote_lane(
                f"req-{k}", [self._lane_span(f"s{k}", t0 + 100, t0 + 200)]
            )
        events = chrome_trace_events(tr)
        order = [
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert order == ["coordinator", "req-0", "req-2", "req-10"]


class TestSamplerCounters:
    class _FakeSampler:
        def __init__(self, samples):
            self.samples = samples

    def test_rss_and_probe_counter_tracks(self):
        tr = Tracer()
        sampler = self._FakeSampler(
            [
                {
                    "t_ns": tr.perf0_ns + 1000,
                    "rss_bytes": 3 * 2**20,
                    "span": None,
                    "probes": {"store.materialised_blocks:x": 5.0},
                }
            ]
        )
        counters = [
            e for e in chrome_trace_events(tr, sampler) if e["ph"] == "C"
        ]
        assert {e["name"] for e in counters} == {
            "rss_mb",
            "store.materialised_blocks:x",
        }
        rss = next(e for e in counters if e["name"] == "rss_mb")
        assert rss["args"]["rss_mb"] == pytest.approx(3.0)

    def test_none_rss_sample_skipped(self):
        tr = Tracer()
        sampler = self._FakeSampler(
            [{"t_ns": tr.perf0_ns, "rss_bytes": None, "span": None}]
        )
        assert not [
            e for e in chrome_trace_events(tr, sampler) if e["ph"] == "C"
        ]


class TestWrite:
    def test_file_is_loadable_object_form(self, tmp_path, traced):
        path = write_chrome_trace(tmp_path / "sub" / "run.trace.json", traced)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload == chrome_trace_dict(traced)
        assert len(payload["traceEvents"]) >= 4  # 2 metadata + 2 spans

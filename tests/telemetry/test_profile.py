"""Span-forest attribution: self time, critical path, collapsed stacks."""

import pytest

from repro.telemetry import (
    Span,
    Tracer,
    aggregate,
    chrome_trace_dict,
    collapsed_stacks,
    critical_path,
    lanes_from_chrome_trace,
    render_collapsed,
    render_critical_path,
    write_collapsed,
)

MS = 1_000_000  # ns per millisecond


def make_span(name, start_ms, end_ms, children=(), attrs=None):
    span = Span(name, attrs)
    span.start_ns = int(start_ms * MS)
    span.end_ns = int(end_ms * MS)
    for child in children:
        child.parent = span
        span.children.append(child)
    return span


class TestAggregate:
    def test_self_is_total_minus_children(self):
        child = make_span("child", 2, 8)
        root = make_span("root", 0, 10, [child])
        rows = {r.label: r for r in aggregate({"lane": [root]})}
        assert rows["root"].total_ns == 10 * MS
        assert rows["root"].self_ns == 4 * MS
        assert rows["child"].self_ns == rows["child"].total_ns == 6 * MS
        assert rows["root"].calls == rows["child"].calls == 1

    def test_same_label_sums_across_lanes(self):
        lanes = {
            "a": [make_span("work", 0, 5)],
            "b": [make_span("work", 0, 7)],
        }
        (row,) = aggregate(lanes)
        assert row.calls == 2
        assert row.total_ns == 12 * MS

    def test_negative_self_clamped_to_zero(self):
        # overlapping async children can exceed the parent's duration
        kids = [make_span("k", 0, 8), make_span("k", 1, 9)]
        root = make_span("root", 0, 10, kids)
        rows = {r.label: r for r in aggregate({"lane": [root]})}
        assert rows["root"].self_ns == 0

    def test_sorted_by_self_time_descending(self):
        lanes = {
            "lane": [make_span("small", 0, 1), make_span("big", 2, 9)]
        }
        rows = aggregate(lanes)
        assert [r.label for r in rows] == ["big", "small"]


class TestCriticalPath:
    def test_deepest_active_span_wins(self):
        inner = make_span("inner", 3, 7)
        root = make_span("root", 0, 10, [inner])
        segments = critical_path({"lane": [root]})
        assert [(s.label, s.start_ns, s.end_ns) for s in segments] == [
            ("root", 0, 3 * MS),
            ("inner", 3 * MS, 7 * MS),
            ("root", 7 * MS, 10 * MS),
        ]

    def test_worker_lane_bounds_the_middle(self):
        lanes = {
            "coordinator": [make_span("run", 0, 10)],
            "worker-0": [make_span("shard", 2, 8)],
        }
        segments = critical_path(lanes)
        assert [(s.lane, s.label) for s in segments] == [
            ("coordinator", "run"),
            ("worker-0", "shard"),
            ("coordinator", "run"),
        ]

    def test_durations_sum_to_busy_wall_time_with_gaps(self):
        lanes = {"lane": [make_span("a", 0, 2), make_span("b", 5, 7)]}
        segments = critical_path(lanes)
        assert sum(s.duration_ns for s in segments) == 4 * MS
        assert [s.label for s in segments] == ["a", "b"]

    def test_empty_and_zero_duration_spans(self):
        assert critical_path({}) == []
        assert critical_path({"lane": [make_span("instant", 5, 5)]}) == []

    def test_render_mentions_covered_time_and_shares(self):
        segments = critical_path({"lane": [make_span("work", 0, 2)]})
        text = render_critical_path(segments)
        assert "0.002s covered" in text
        assert "lane:work" in text and "100.0%" in text
        assert "no critical path" in render_critical_path([])


class TestCollapsedStacks:
    def test_nested_stack_weights_are_self_time_us(self):
        inner = make_span("inner", 3, 7)
        root = make_span("outer", 0, 10, [inner])
        stacks = collapsed_stacks({"lane": [root]})
        assert stacks == {
            "lane;outer": 6000,
            "lane;outer;inner": 4000,
        }

    def test_zero_self_time_emits_no_line(self):
        child = make_span("child", 0, 10)
        root = make_span("outer", 0, 10, [child])
        stacks = collapsed_stacks({"lane": [root]})
        assert "lane;outer" not in stacks
        assert stacks["lane;outer;child"] == 10_000

    def test_semicolons_in_names_mapped_to_commas(self):
        root = make_span("a;b", 0, 1)
        stacks = collapsed_stacks({"la;ne": [root]})
        assert list(stacks) == ["la,ne;a,b"]

    def test_tiny_positive_self_time_never_drops_to_zero_weight(self):
        root = make_span("fast", 0, 0.0001)  # 100 ns -> rounds to 0 us
        stacks = collapsed_stacks({"lane": [root]})
        assert stacks["lane;fast"] == 1

    def test_render_and_write(self, tmp_path):
        stacks = {"lane;b": 2, "lane;a": 1}
        text = render_collapsed(stacks)
        assert text.splitlines() == ["lane;a 1", "lane;b 2"]
        path = write_collapsed(tmp_path / "deep" / "flame.txt", stacks)
        assert path.read_text() == text + "\n"
        empty = write_collapsed(tmp_path / "empty.txt", {})
        assert empty.read_text() == ""


class TestChromeTraceRoundTrip:
    def test_rebuilt_lanes_match_live_tracer(self):
        tr = Tracer()
        with tr.span("run"):
            with tr.span("fabricate"):
                pass
            with tr.span("sweep"):
                with tr.span("kernel"):
                    pass
        tr.add_remote_lane("worker-0", [make_span("shard", 0, 5)])
        live = collapsed_stacks(
            {"coordinator": tr.roots, **tr.remote_lanes}
        )
        rebuilt = collapsed_stacks(
            lanes_from_chrome_trace(chrome_trace_dict(tr))
        )
        # microsecond rounding through ts/dur may shift weights by 1
        assert set(rebuilt) == set(live)
        for stack, weight in live.items():
            assert abs(rebuilt[stack] - weight) <= 2

    def test_bare_event_list_accepted(self):
        events = [
            {"name": "work", "ph": "X", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 1000.0},
        ]
        lanes = lanes_from_chrome_trace(events)
        assert [s.name for s in lanes["tid-0"]] == ["work"]

    def test_thread_name_metadata_labels_lanes(self):
        events = {
            "traceEvents": [
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": 3,
                 "args": {"name": "worker-3"}},
                {"name": "shard", "ph": "X", "pid": 1, "tid": 3,
                 "ts": 10.0, "dur": 50.0},
            ]
        }
        lanes = lanes_from_chrome_trace(events)
        assert list(lanes) == ["worker-3"]

    def test_nesting_rebuilt_by_containment(self):
        events = [
            {"name": "outer", "ph": "X", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 100.0},
            {"name": "inner", "ph": "X", "pid": 1, "tid": 0,
             "ts": 20.0, "dur": 30.0},
            {"name": "second", "ph": "X", "pid": 1, "tid": 0,
             "ts": 60.0, "dur": 10.0},
        ]
        (root,) = lanes_from_chrome_trace(events)["tid-0"]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner", "second"]

    def test_counter_events_ignored_and_bad_payload_rejected(self):
        events = [
            {"name": "rss", "ph": "C", "pid": 1, "tid": 0, "ts": 0.0},
            {"name": "work", "ph": "X", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 5.0},
        ]
        lanes = lanes_from_chrome_trace(events)
        assert [s.name for s in lanes["tid-0"]] == ["work"]
        with pytest.raises(ValueError, match="traceEvents"):
            lanes_from_chrome_trace({"traceEvents": "nope"})

    @pytest.mark.parametrize(
        "bad", [{"tid": None}, {"tid": [1]}, {"ts": float("inf")}],
        ids=["tid-null", "tid-list", "ts-inf"],
    )
    def test_slice_with_unusable_tid_or_ts_is_skipped(self, bad):
        work = {"name": "work", "ph": "X", "pid": 1, "tid": 0,
                "ts": 0.0, "dur": 5.0}
        lanes = lanes_from_chrome_trace([work, {**work, "name": "bad", **bad}])
        assert {label: [s.name for s in roots]
                for label, roots in lanes.items()} == {"tid-0": ["work"]}

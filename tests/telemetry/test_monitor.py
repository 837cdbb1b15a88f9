"""Monitor fold/render: progress bars, rates, RSS sparkline, resilience."""

import copy
import json

from repro.telemetry.monitor import MonitorState, parse_events, render_monitor


def _lines(*records):
    return [json.dumps(r) for r in records]


def _progress(stage, done, total=None, elapsed=0.0, **extra):
    rec = {"event": "progress", "stage": stage, "done": done,
           "elapsed_s": elapsed}
    if total is not None:
        rec["total"] = total
    rec.update(extra)
    return rec


class TestParse:
    def test_progress_folds_into_stages(self):
        state = parse_events(
            _lines(
                {"event": "run.start", "command": "run", "experiment": "e2"},
                _progress("chips", 10, total=50, elapsed=1.0),
                _progress("chips", 30, total=50, elapsed=2.0, eta_s=1.0),
            )
        )
        stage = state.stages["chips"]
        assert stage.done == 30 and stage.total == 50
        assert stage.fraction == 0.6
        assert stage.rate == 20.0  # (30-10)/(2.0-1.0)
        assert stage.eta_s == 1.0
        assert state.running
        assert state.command == "run" and state.experiment == "e2"
        assert state.elapsed_s == 2.0

    def test_run_end_flips_running(self):
        state = parse_events(
            _lines({"event": "run.start"}, {"event": "run.end"})
        )
        assert not state.running
        assert state.n_events == 2

    def test_malformed_lines_skipped_not_fatal(self):
        state = parse_events(
            ["not json", "", json.dumps(["a", "list"]),
             json.dumps({"no_event_key": 1})]
            + _lines(_progress("chips", 1))
        )
        assert state.n_skipped == 3
        assert state.n_events == 1

    def test_unfoldable_records_are_skipped_and_leave_the_state(self):
        state = parse_events(
            _lines(
                _progress("chips", 10, total=50, elapsed=1.0),
                {"event": "sample", "rss_bytes": 1048576, "span": "fab"},
            )
        )
        before = copy.deepcopy(state)
        too_large = "9" * 400
        parse_events(
            [
                '{"event": "sample", "rss_bytes": %s}' % too_large,
                '{"event": "progress", "stage": "chips", "done": %s}'
                % too_large,
                json.dumps(_progress("chips", 20, elapsed="abc")),
                json.dumps(_progress("other", 1, elapsed="abc")),
            ],
            state,
        )
        assert state.n_skipped == before.n_skipped + 4
        state.n_skipped = before.n_skipped
        assert state == before

    def test_stage_restart_resets_rate_window(self):
        """done going backwards = the next corner of a sweep started; the
        rolling rate must reflect the current pass, not span both."""
        state = parse_events(
            _lines(
                _progress("chips", 40, elapsed=1.0),
                _progress("chips", 50, elapsed=2.0),
                _progress("chips", 5, elapsed=3.0),
            )
        )
        stage = state.stages["chips"]
        assert stage.done == 5
        assert stage.rate is None  # one point since the reset

    def test_samples_feed_rss_series_and_span(self):
        state = parse_events(
            _lines(
                {"event": "sample", "rss_bytes": 1048576, "span": "fab"},
                {"event": "sample", "rss_bytes": 2097152, "span": None},
            )
        )
        assert state.rss_series == [1048576.0, 2097152.0]
        assert state.last_rss_bytes == 2097152.0
        assert state.current_span == "fab"  # None does not clear it

    def test_incremental_parse_keeps_state(self):
        state = parse_events(_lines(_progress("chips", 10, elapsed=1.0)))
        parse_events(_lines(_progress("chips", 20, elapsed=2.0)), state)
        assert state.stages["chips"].done == 20
        assert state.n_events == 2

    def test_rss_series_bounded(self):
        lines = _lines(
            *({"event": "sample", "rss_bytes": i} for i in range(500))
        )
        state = parse_events(lines)
        assert len(state.rss_series) == 120
        assert state.rss_series[-1] == 499.0


class TestRender:
    def test_empty_state(self):
        assert render_monitor(MonitorState()) == "(no events yet)"

    def test_only_skipped_lines_are_not_an_empty_file(self):
        """A file whose every line was skipped must not read as fresh."""
        state = parse_events(["garbage", json.dumps({"event": "progress"})])
        assert state.n_events == 0 and state.n_skipped == 2
        assert render_monitor(state) == "(no readable events; 2 line(s) skipped)"

    def test_dashboard_rows(self):
        state = parse_events(
            _lines(
                {"event": "run.start", "command": "run", "experiment": "e2",
                 "elapsed_s": 0.0},
                _progress("chips", 25, total=50, elapsed=2.5),
                {"event": "sample", "rss_bytes": 1 << 20, "span": "sweep"},
            )
        )
        text = render_monitor(state)
        assert "run: run e2" in text
        assert "[running]" in text
        assert "span: sweep" in text
        assert "chips" in text and "25/50" in text
        assert "rss :" in text and "1 MiB" in text

    def test_finished_and_skipped_annotations(self):
        state = parse_events(
            _lines({"event": "run.start"}, {"event": "run.end"})
            + ["garbage"]
        )
        text = render_monitor(state)
        assert "[finished]" in text
        assert "+1 skipped" in text

    def test_total_less_stage_renders_count_only(self):
        state = parse_events(_lines(_progress("chips", 7)))
        text = render_monitor(state)
        assert " 7" in text and "/" not in text.split("chips", 1)[1]

    def test_gib_formatting(self):
        state = parse_events(
            _lines({"event": "sample", "rss_bytes": 3 << 30})
        )
        assert "3.00 GiB" in render_monitor(state)

    def test_loop_lag_series_folds_and_renders(self):
        """A serving run's event-loop-lag probe echoes through sampler
        events; the dashboard grows a lag sparkline next to rss."""
        state = parse_events(
            _lines(
                {"event": "sample", "rss_bytes": 1 << 20, "loop_lag_ms": 0.4},
                {"event": "sample", "rss_bytes": 1 << 20, "loop_lag_ms": 2.75},
            )
        )
        assert state.last_loop_lag_ms == 2.75
        assert state.lag_series == [0.4, 2.75]
        text = render_monitor(state)
        assert "lag :" in text
        assert "now 2.75 ms" in text
        assert "peak 2.75 ms" in text

    def test_no_lag_events_no_lag_row(self):
        state = parse_events(
            _lines({"event": "sample", "rss_bytes": 1 << 20})
        )
        assert "lag :" not in render_monitor(state)

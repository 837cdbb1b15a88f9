"""End-to-end observatory: --trace-out/--sample-rss sweeps, repro monitor."""

import json

import pytest

from repro.cli import main as cli_main


@pytest.fixture(scope="module")
def observatory_run(tmp_path_factory):
    """One parallel mmap-store sweep with the full observatory on —
    exactly the shape of CI's observatory smoke step."""
    root = tmp_path_factory.mktemp("observatory")
    trace = root / "run.trace.json"
    metrics = root / "metrics.json"
    events = root / "events.jsonl"
    code = cli_main(
        [
            "run", "e2", "--chips", "6", "--ros", "16",
            "--jobs", "2", "--store", "mmap",
            "--trace-out", str(trace),
            "--sample-rss", "200",
            "--events", str(events),
            "--metrics-out", str(metrics),
        ]
    )
    assert code == 0
    return trace, metrics, events


class TestTraceOut:
    def test_trace_event_object_form(self, observatory_run):
        trace, _, _ = observatory_run
        payload = json.loads(trace.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["traceEvents"]

    def test_one_lane_per_worker_shard(self, observatory_run):
        trace, _, _ = observatory_run
        events = json.loads(trace.read_text())["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        worker_tids = {e["tid"] for e in slices if e["tid"] != 0}
        assert worker_tids == {1, 2}
        lane_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"coordinator", "worker-0", "worker-1"} <= lane_names

    def test_rss_counter_track_present(self, observatory_run):
        trace, _, _ = observatory_run
        events = json.loads(trace.read_text())["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert any(e["name"] == "rss_mb" for e in counters)


class TestMetricsPayload:
    def test_histograms_and_samples_in_payload(self, observatory_run):
        _, metrics, _ = observatory_run
        payload = json.loads(metrics.read_text())
        assert payload["format"] == 3
        # mmap-store workers report the store-path kernel latencies
        assert "batch.block_s" in payload["histograms"]
        assert "store.fabricate_block_s" in payload["histograms"]
        assert payload["resource_samples"]
        sample = payload["resource_samples"][0]
        assert set(sample) >= {"t_s", "rss_bytes", "span"}

    def test_manifest_carries_histogram_summaries(self, observatory_run):
        _, metrics, _ = observatory_run
        manifest = json.loads(metrics.read_text())["manifest"]
        assert manifest["histograms"]
        assert "p99" in next(iter(manifest["histograms"].values()))


class TestMonitorCommand:
    def test_post_hoc_render(self, observatory_run, capsys):
        _, _, events = observatory_run
        assert cli_main(["monitor", "--events", str(events)]) == 0
        out = capsys.readouterr().out
        assert "run: run e2" in out
        assert "[finished]" in out

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = cli_main(["monitor", "--events", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "no events file" in capsys.readouterr().err


class TestFlagValidation:
    def test_nonpositive_sample_rate_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli_main(
                ["run", "e2", "--chips", "3", "--ros", "16",
                 "--sample-rss", "0"]
            )

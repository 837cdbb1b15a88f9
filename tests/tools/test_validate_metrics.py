"""tools/validate_metrics.py: the CI smoke validator's contract."""

import importlib.util
import json
import pathlib

import pytest

from repro.cli import main as cli_main

_SPEC = importlib.util.spec_from_file_location(
    "validate_metrics",
    pathlib.Path(__file__).resolve().parents[2] / "tools" / "validate_metrics.py",
)
validate_metrics = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(validate_metrics)


@pytest.fixture(scope="module")
def metrics_file(tmp_path_factory):
    """A real artefact, produced exactly the way CI's smoke step does."""
    path = tmp_path_factory.mktemp("metrics") / "m.json"
    code = cli_main(
        ["run", "e2", "--chips", "3", "--ros", "16", "--metrics-out", str(path)]
    )
    assert code == 0
    return path


class TestValidatePayload:
    def test_real_artefact_is_clean(self, metrics_file):
        payload = json.loads(metrics_file.read_text())
        assert validate_metrics.validate_payload(payload) == []

    def test_missing_manifest_flagged(self, metrics_file):
        payload = json.loads(metrics_file.read_text())
        del payload["manifest"]
        assert any(
            "manifest" in p for p in validate_metrics.validate_payload(payload)
        )

    def test_bad_span_flagged(self, metrics_file):
        payload = json.loads(metrics_file.read_text())
        payload["spans"][0]["duration_ns"] = -1
        assert any(
            "duration_ns" in p for p in validate_metrics.validate_payload(payload)
        )

    def test_non_numeric_counter_flagged(self, metrics_file):
        payload = json.loads(metrics_file.read_text())
        payload["counters"]["bogus"] = "three"
        assert any(
            "bogus" in p for p in validate_metrics.validate_payload(payload)
        )


class TestMain:
    def test_valid_file_exit_zero(self, metrics_file, capsys):
        assert validate_metrics.main([str(metrics_file)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_invalid_json_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{")
        assert validate_metrics.main([str(bad)]) == 1

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert validate_metrics.main([str(tmp_path / "nope.json")]) == 1

    def test_schema_violation_exit_one(self, metrics_file, tmp_path, capsys):
        payload = json.loads(metrics_file.read_text())
        payload["manifest"].pop("seed")
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        assert validate_metrics.main([str(broken)]) == 1
        assert "seed" in capsys.readouterr().err


class TestExecutionFields:
    """The optional manifest jobs / cache fields (parallel + cache PR)."""

    @pytest.fixture
    def payload(self, metrics_file):
        return json.loads(metrics_file.read_text())

    def test_jobs_and_cache_accepted(self, payload):
        payload["manifest"]["jobs"] = 4
        payload["manifest"]["cache"] = {
            "dir": "/tmp/cache",
            "hits": ["e2"],
            "misses": ["e3"],
        }
        assert validate_metrics.validate_payload(payload) == []

    def test_absent_fields_accepted(self, payload):
        """Older manifests without jobs/cache stay valid."""
        payload["manifest"].pop("jobs", None)
        payload["manifest"].pop("cache", None)
        assert validate_metrics.validate_payload(payload) == []

    def test_non_positive_jobs_flagged(self, payload):
        payload["manifest"]["jobs"] = 0
        assert any(
            "jobs" in p for p in validate_metrics.validate_payload(payload)
        )

    def test_wrong_type_jobs_flagged(self, payload):
        payload["manifest"]["jobs"] = "four"
        assert any(
            "jobs" in p for p in validate_metrics.validate_payload(payload)
        )

    def test_cache_missing_dir_flagged(self, payload):
        payload["manifest"]["cache"] = {"hits": [], "misses": []}
        assert any(
            "dir" in p for p in validate_metrics.validate_payload(payload)
        )

    def test_cache_bad_hit_list_flagged(self, payload):
        payload["manifest"]["cache"] = {
            "dir": "/tmp/c",
            "hits": [1, 2],
            "misses": [],
        }
        assert any(
            "hits" in p for p in validate_metrics.validate_payload(payload)
        )

    def test_cli_artefact_with_cache_validates(self, tmp_path, capsys):
        """End to end: a real --cache --jobs artefact passes the tool."""
        out = tmp_path / "m.json"
        code = cli_main(
            [
                "run", "e3", "--chips", "4", "--ros", "16", "--jobs", "2",
                "--cache", str(tmp_path / "cache"), "--metrics-out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert validate_metrics.main([str(out)]) == 0
        report = capsys.readouterr().out
        assert "jobs=2" in report
        assert "0 hit(s) / 1 miss(es)" in report


class TestStoreFields:
    """The optional manifest store / block_size / peak_rss_bytes fields
    (out-of-core store PR)."""

    @pytest.fixture
    def payload(self, metrics_file):
        return json.loads(metrics_file.read_text())

    def test_store_fields_accepted(self, payload):
        payload["manifest"]["store"] = "mmap"
        payload["manifest"]["block_size"] = 2000
        payload["manifest"]["peak_rss_bytes"] = 209_000_000
        assert validate_metrics.validate_payload(payload) == []

    def test_absent_fields_accepted(self, payload):
        """Older manifests without store fields stay valid."""
        for key in ("store", "block_size", "peak_rss_bytes"):
            payload["manifest"].pop(key, None)
        assert validate_metrics.validate_payload(payload) == []

    def test_unknown_store_flagged(self, payload):
        payload["manifest"]["store"] = "tape"
        assert any(
            "store" in p for p in validate_metrics.validate_payload(payload)
        )

    def test_non_positive_block_size_flagged(self, payload):
        payload["manifest"]["block_size"] = 0
        assert any(
            "block_size" in p
            for p in validate_metrics.validate_payload(payload)
        )

    def test_negative_peak_rss_flagged(self, payload):
        payload["manifest"]["peak_rss_bytes"] = -1
        assert any(
            "peak_rss_bytes" in p
            for p in validate_metrics.validate_payload(payload)
        )

    def test_non_finite_peak_rss_flagged(self, payload):
        payload["manifest"]["peak_rss_bytes"] = float("nan")
        assert any(
            "peak_rss_bytes" in p
            for p in validate_metrics.validate_payload(payload)
        )

    def test_cli_mmap_artefact_validates(self, tmp_path, capsys):
        """End to end: a real --store mmap artefact passes the tool."""
        out = tmp_path / "m.json"
        code = cli_main(
            [
                "run", "e2", "--chips", "4", "--ros", "16",
                "--store", "mmap", "--block-size", "3",
                "--metrics-out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["store"] == "mmap"
        assert manifest["block_size"] == 3
        assert manifest["peak_rss_bytes"] > 0
        capsys.readouterr()
        assert validate_metrics.main([str(out)]) == 0
        report = capsys.readouterr().out
        assert "store=mmap" in report
        assert "block_size=3" in report
        assert "peak_rss=" in report


@pytest.fixture(scope="module")
def explain_artifacts(tmp_path_factory):
    """Real explain + ledger artefacts, produced the way CI's smoke does."""
    root = tmp_path_factory.mktemp("explain")
    json_path = root / "explain.json"
    ledger_path = root / "ledger.jsonl"
    code = cli_main(
        ["explain", "--chips", "3", "--ros", "16", "--seed", "3",
         "--json", str(json_path), "--ledger", str(ledger_path)]
    )
    assert code == 0
    return json_path, ledger_path


class TestValidateLedger:
    def _entries(self, path):
        return [json.loads(l) for l in path.read_text().splitlines()]

    def test_real_ledger_is_clean(self, explain_artifacts):
        _, ledger = explain_artifacts
        assert validate_metrics.validate_ledger_entries(self._entries(ledger)) == []

    def test_non_finite_scalar_flagged(self, explain_artifacts):
        _, ledger = explain_artifacts
        entries = self._entries(ledger)
        entries[0]["scalars"]["ro-puf.margin_p5_pct"] = float("nan")
        problems = validate_metrics.validate_ledger_entries(entries)
        assert any("not finite" in p for p in problems)

    def test_missing_e13_field_flagged(self, explain_artifacts):
        """The ledger drops NaN/inf on write, so absence is the symptom."""
        _, ledger = explain_artifacts
        entries = self._entries(ledger)
        del entries[0]["scalars"]["aro-puf.forecast_recall"]
        problems = validate_metrics.validate_ledger_entries(entries)
        assert any("aro-puf.forecast_recall" in p for p in problems)

    def test_out_of_range_recall_flagged(self, explain_artifacts):
        _, ledger = explain_artifacts
        entries = self._entries(ledger)
        entries[0]["scalars"]["ro-puf.forecast_recall"] = 1.7
        problems = validate_metrics.validate_ledger_entries(entries)
        assert any("outside [0, 1]" in p for p in problems)

    def test_non_e13_entries_only_need_finite_scalars(self):
        entries = [{"experiment": "e2", "scalars": {"x": 1.0}}]
        assert validate_metrics.validate_ledger_entries(entries) == []

    def test_main_ledger_mode(self, explain_artifacts, capsys):
        _, ledger = explain_artifacts
        assert validate_metrics.main(["--ledger", str(ledger)]) == 0
        assert "ledger" in capsys.readouterr().out


class TestValidateExplain:
    def test_real_payload_is_clean(self, explain_artifacts):
        json_path, _ = explain_artifacts
        payload = json.loads(json_path.read_text())
        assert validate_metrics.validate_explain_payload(payload) == []

    def test_wrong_format_flagged(self, explain_artifacts):
        json_path, _ = explain_artifacts
        payload = json.loads(json_path.read_text())
        payload["format"] = 99
        problems = validate_metrics.validate_explain_payload(payload)
        assert any("format" in p for p in problems)

    def test_non_finite_forecast_flagged(self, explain_artifacts):
        json_path, _ = explain_artifacts
        payload = json.loads(json_path.read_text())
        del payload["designs"]["ro-puf"]["forecast"]["recall"]
        problems = validate_metrics.validate_explain_payload(payload)
        assert any("forecast.recall" in p for p in problems)

    def test_histogram_bin_mismatch_flagged(self, explain_artifacts):
        json_path, _ = explain_artifacts
        payload = json.loads(json_path.read_text())
        hist = payload["designs"]["aro-puf"]["histogram"]
        first = next(iter(hist["counts"]))
        hist["counts"][first] = hist["counts"][first][:-1]
        problems = validate_metrics.validate_explain_payload(payload)
        assert any("bins" in p for p in problems)

    def test_missing_designs_flagged(self):
        problems = validate_metrics.validate_explain_payload(
            {"format": 1, "kind": "explain", "config": {}}
        )
        assert any("designs" in p for p in problems)

    def test_main_explain_mode(self, explain_artifacts, capsys):
        json_path, _ = explain_artifacts
        assert validate_metrics.main(["--explain", str(json_path)]) == 0
        assert "2 design(s)" in capsys.readouterr().out

    def test_main_explain_mode_rejects_metrics_payload(
        self, metrics_file, capsys
    ):
        assert validate_metrics.main(["--explain", str(metrics_file)]) == 1


class TestHistogramSection:
    def test_missing_histograms_section_flagged(self, metrics_file):
        payload = json.loads(metrics_file.read_text())
        del payload["histograms"]
        assert any(
            "histograms" in p for p in validate_metrics.validate_payload(payload)
        )

    def _payload_with_hist(self, metrics_file, hist):
        payload = json.loads(metrics_file.read_text())
        payload["histograms"] = {"batch.block_s": hist}
        return payload

    def test_well_formed_histogram_clean(self, metrics_file):
        from repro.telemetry.histogram import Histogram

        h = Histogram()
        for value in [0.001, 0.002, 0.0]:
            h.observe(value)
        payload = self._payload_with_hist(
            metrics_file, json.loads(json.dumps(h.to_dict()))
        )
        assert validate_metrics.validate_payload(payload) == []

    def test_growth_mismatch_flagged(self, metrics_file):
        payload = self._payload_with_hist(
            metrics_file,
            {"growth": 2.0, "count": 1, "zero": 0, "buckets": {"0": 1}},
        )
        assert any(
            "growth" in p for p in validate_metrics.validate_payload(payload)
        )

    def test_count_invariant_flagged(self, metrics_file):
        from repro.telemetry.histogram import GROWTH

        payload = self._payload_with_hist(
            metrics_file,
            {"growth": GROWTH, "count": 5, "zero": 0, "buckets": {"0": 1}},
        )
        assert any(
            "!= count" in p for p in validate_metrics.validate_payload(payload)
        )

    def test_boolean_count_flagged(self, metrics_file):
        from repro.telemetry.histogram import GROWTH

        payload = self._payload_with_hist(
            metrics_file,
            {"growth": GROWTH, "count": True, "zero": 0, "buckets": {}},
        )
        assert any(
            "count" in p for p in validate_metrics.validate_payload(payload)
        )


class TestTraceMode:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        """A real --trace-out artefact from a jobs=2 sweep."""
        path = tmp_path_factory.mktemp("trace") / "run.trace.json"
        code = cli_main(
            [
                "run", "e2", "--chips", "4", "--ros", "16",
                "--jobs", "2", "--trace-out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_real_trace_is_clean(self, trace_file, capsys):
        assert validate_metrics.main(["--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "trace event(s)" in out and "lane(s)" in out

    def test_real_trace_has_worker_lanes(self, trace_file):
        payload = json.loads(trace_file.read_text())
        assert validate_metrics.validate_trace_events(payload) == []
        assert validate_metrics._trace_lanes(payload) >= 3  # main + 2 workers

    def test_empty_trace_flagged(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({"traceEvents": []}))
        assert validate_metrics.main(["--trace", str(bad)]) == 1
        assert "traceEvents" in capsys.readouterr().err

    def test_negative_duration_flagged(self, trace_file, tmp_path, capsys):
        payload = json.loads(trace_file.read_text())
        slice_event = next(
            e for e in payload["traceEvents"] if e["ph"] == "X"
        )
        slice_event["dur"] = -1.0
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        assert validate_metrics.main(["--trace", str(broken)]) == 1
        assert "dur" in capsys.readouterr().err

    def test_missing_tid_flagged(self, trace_file):
        payload = json.loads(trace_file.read_text())
        del payload["traceEvents"][0]["tid"]
        assert any(
            "tid" in p
            for p in validate_metrics.validate_trace_events(payload)
        )


@pytest.fixture(scope="module")
def service_file(tmp_path_factory):
    """A real loadgen artefact, produced the way CI's smoke step does."""
    path = tmp_path_factory.mktemp("service") / "loadgen.json"
    code = cli_main(
        [
            "loadgen",
            "--chips", "2",
            "--requests", "40",
            "--concurrency", "2",
            "--out", str(path),
            "--slo-gate", "off",
        ]
    )
    assert code == 0
    return path


class TestServiceMode:
    def test_real_artefact_is_clean(self, service_file):
        payload = json.loads(service_file.read_text())
        assert validate_metrics.validate_service_payload(payload) == []

    def test_main_exit_zero_with_summary(self, service_file, capsys):
        assert validate_metrics.main(["--service", str(service_file)]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out
        assert "endpoint(s)" in out
        assert "slo worst status" in out

    def test_missing_service_section_flagged(self, service_file):
        payload = json.loads(service_file.read_text())
        del payload["service"]
        problems = validate_metrics.validate_service_payload(payload)
        assert any("service" in p for p in problems)

    def test_bad_red_endpoint_flagged(self, service_file):
        payload = json.loads(service_file.read_text())
        block = payload["service"]["red"]["endpoints"]["auth"]
        block["availability"] = 1.5
        block["requests"] = -3
        problems = validate_metrics.validate_service_payload(payload)
        assert any("availability" in p for p in problems)
        assert any("requests" in p for p in problems)

    def test_outcome_counts_must_sum_to_requests(self, service_file):
        payload = json.loads(service_file.read_text())
        payload["service"]["red"]["endpoints"]["auth"]["outcomes"]["ok"] += 1
        problems = validate_metrics.validate_service_payload(payload)
        assert any("outcome counts sum" in p for p in problems)

    def test_broken_duration_histogram_flagged(self, service_file):
        payload = json.loads(service_file.read_text())
        durations = payload["service"]["red"]["durations_ms"]
        site = next(iter(durations))
        durations[site]["count"] = -1
        problems = validate_metrics.validate_service_payload(payload)
        assert any(site in p for p in problems)

    def test_bad_slo_verdict_flagged(self, service_file):
        payload = json.loads(service_file.read_text())
        verdict = payload["service"]["slo"][0]
        verdict["status"] = "shrug"
        verdict["bound"] = "diagonal"
        problems = validate_metrics.validate_service_payload(payload)
        assert any("status" in p for p in problems)
        assert any("bound" in p for p in problems)

    def test_bad_request_sample_flagged(self, service_file):
        payload = json.loads(service_file.read_text())
        sample = payload["service"]["requests"][0]
        sample["duration_ms"] = float("nan")
        sample["trace_id"] = "abc"
        payload["service"]["requests"][0] = json.loads(
            json.dumps(sample).replace("NaN", "null")
        )
        problems = validate_metrics.validate_service_payload(payload)
        assert any("duration_ms" in p for p in problems)
        assert any("trace_id" in p for p in problems)

    def test_non_finite_metric_flagged(self, service_file):
        payload = json.loads(service_file.read_text())
        payload["service"]["metrics"]["auth.p99_ms"] = None
        problems = validate_metrics.validate_service_payload(payload)
        assert any("auth.p99_ms" in p for p in problems)

    def test_wrong_format_flagged(self, service_file):
        payload = json.loads(service_file.read_text())
        payload["service"]["format"] = 99
        problems = validate_metrics.validate_service_payload(payload)
        assert any("service.format" in p for p in problems)

    def test_invalid_file_exit_one(self, service_file, tmp_path, capsys):
        payload = json.loads(service_file.read_text())
        payload["service"]["slo"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert validate_metrics.main(["--service", str(bad)]) == 1
        assert "invalid:" in capsys.readouterr().err


class TestArtefactsFromBeforeTheDtypeTierWentAway:
    """Artefacts written while the float32 tier existed stay readable.

    Both files were produced by ``run e2 --chips 3 --ros 16`` at the
    commit before the tier's removal; their manifest ``config`` still
    carries ``"dtype": "float64"``, a key current runs no longer write.
    """

    DATA = pathlib.Path(__file__).parent / "data"

    def test_metrics_artefact_validates(self):
        path = self.DATA / "e2_metrics_dtype_config.json"
        payload = json.loads(path.read_text())
        assert payload["manifest"]["config"]["dtype"] == "float64"
        assert validate_metrics.validate_payload(payload) == []
        assert validate_metrics.main([str(path)]) == 0

    def test_ledger_loads_and_validates(self):
        from repro.telemetry.ledger import Ledger, metric_series

        path = self.DATA / "e2_ledger_dtype_config.jsonl"
        entries = Ledger(path).entries(strict=True)
        assert [e.name for e in entries] == ["e2", "telemetry"]
        assert all(e.kind == "run" for e in entries)
        assert all(e.manifest["config"]["dtype"] == "float64" for e in entries)
        assert "e2.aro-puf.flips_at_10y_pct" in metric_series(entries)
        assert validate_metrics.main(["--ledger", str(path)]) == 0

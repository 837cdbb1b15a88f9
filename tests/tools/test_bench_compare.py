"""tools/bench_compare.py: regression diffing and the --json contract."""

import importlib.util
import json
import pathlib
import sys

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    pathlib.Path(__file__).resolve().parents[2] / "tools" / "bench_compare.py",
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def _write_results(path, name, values, counters=None, memory=None):
    path.mkdir(parents=True, exist_ok=True)
    payload = {"name": name, "values": values}
    if counters is not None:
        payload["counters"] = counters
    if memory is not None:
        payload["memory"] = memory
    (path / f"{name}.json").write_text(json.dumps(payload))


def _write_ledger(path, scalars_by_experiment):
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "ledger.jsonl", "w") as fh:
        for experiment, scalars in scalars_by_experiment.items():
            fh.write(
                json.dumps({"experiment": experiment, "scalars": scalars}) + "\n"
            )


@pytest.fixture
def result_dirs(tmp_path):
    old = tmp_path / "baseline"
    new = tmp_path / "candidate"
    _write_results(
        old, "bench", {"time_s": 1.0, "flips": 10.0}, {"kernel_blocks": 30.0}
    )
    _write_results(
        new, "bench", {"time_s": 1.1, "flips": 10.0}, {"kernel_blocks": 60.0}
    )
    return old, new


class TestLoadResults:
    def test_values_section(self, result_dirs):
        old, _ = result_dirs
        assert bench_compare.load_results(old) == {
            "bench:time_s": 1.0,
            "bench:flips": 10.0,
        }

    def test_counters_section(self, result_dirs):
        old, _ = result_dirs
        assert bench_compare.load_results(old, section="counters") == {
            "bench:kernel_blocks": 30.0
        }

    def test_non_artefact_files_skipped(self, tmp_path):
        (tmp_path / "junk.json").write_text('{"not": "an artefact"}')
        (tmp_path / "bad.json").write_text("{{{")
        assert bench_compare.load_results(tmp_path) == {}


class TestMain:
    def test_no_regression_exit_zero(self, result_dirs, capsys):
        old, new = result_dirs
        assert bench_compare.main([str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert "kernel_blocks" in out  # counters diffed informationally

    def test_regression_exit_one(self, result_dirs, capsys):
        old, new = result_dirs
        code = bench_compare.main([str(old), str(new), "--threshold", "0.05"])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_counter_growth_is_not_a_regression(self, result_dirs, capsys):
        # kernel_blocks doubled, but only `values` metrics gate the exit
        old, new = result_dirs
        assert bench_compare.main([str(old), str(new), "--threshold", "0.5"]) == 0

    def test_json_output_contract(self, result_dirs, tmp_path, capsys):
        old, new = result_dirs
        out = tmp_path / "diff" / "report.json"
        code = bench_compare.main(
            [str(old), str(new), "--threshold", "0.05", "--json", str(out)]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["threshold"] == 0.05
        assert payload["regressions"] == ["bench:time_s"]
        by_metric = {row["metric"]: row for row in payload["rows"]}
        assert by_metric["bench:time_s"]["regression"] is True
        assert by_metric["bench:time_s"]["change"] == pytest.approx(0.1)
        assert by_metric["bench:flips"]["regression"] is False
        counters = {row["metric"]: row for row in payload["counters"]}
        assert counters["bench:kernel_blocks"]["change"] == pytest.approx(1.0)

    def test_json_written_even_without_regressions(self, result_dirs, tmp_path):
        old, new = result_dirs
        out = tmp_path / "diff.json"
        assert bench_compare.main([str(old), str(new), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["regressions"] == []

    def test_missing_dir_exit_two(self, tmp_path, capsys):
        assert bench_compare.main([str(tmp_path / "nope"), str(tmp_path)]) == 2


class TestMemoryDiff:
    """The tolerant memory section: artefacts from before the store PR
    lack it entirely and must still diff cleanly."""

    def test_union_with_missing_sides(self):
        rows = bench_compare.compare_memory(
            {"a:peak_rss_bytes": 1.0}, {"b:peak_rss_bytes": 2.0}
        )
        assert rows == [
            ("a:peak_rss_bytes", 1.0, None),
            ("b:peak_rss_bytes", None, 2.0),
        ]

    def test_old_artefact_without_memory_prints_na(
        self, result_dirs, capsys
    ):
        # baseline predates the memory fields; candidate has them
        old, new = result_dirs
        _write_results(
            new,
            "store_gate",
            {"elapsed_s": 5.0},
            memory={"peak_rss_bytes": 2.0e8},
        )
        _write_results(old, "store_gate", {"elapsed_s": 5.0})
        assert bench_compare.main([str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "memory (peak RSS" in out
        assert "n/a" in out

    def test_memory_growth_is_not_a_regression(self, result_dirs):
        old, new = result_dirs
        _write_results(
            old, "gate", {"x": 1.0}, memory={"peak_rss_bytes": 1.0e8}
        )
        _write_results(
            new, "gate", {"x": 1.0}, memory={"peak_rss_bytes": 9.0e8}
        )
        assert bench_compare.main([str(old), str(new), "--threshold", "0.5"]) == 0

    def test_json_memory_section(self, result_dirs, tmp_path):
        old, new = result_dirs
        _write_results(
            new, "gate", {"x": 1.0}, memory={"peak_rss_bytes": 2.0e8}
        )
        out = tmp_path / "diff.json"
        assert bench_compare.main([str(old), str(new), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        rows = {row["metric"]: row for row in payload["memory"]}
        assert rows["gate:peak_rss_bytes"]["baseline"] is None
        assert rows["gate:peak_rss_bytes"]["candidate"] == pytest.approx(2.0e8)


class TestLedgerDiff:
    def test_load_ledger_scalars_latest_wins(self, tmp_path):
        _write_ledger(tmp_path, {"e2": {"flips": 30.0}})
        with open(tmp_path / "ledger.jsonl", "a") as fh:
            fh.write(
                json.dumps({"experiment": "e2", "scalars": {"flips": 32.0}})
                + "\n"
            )
            fh.write("not json\n")  # malformed lines are skipped
        assert bench_compare.load_ledger_scalars(tmp_path) == {"e2.flips": 32.0}

    def test_reads_ledger_written_by_the_package(self, tmp_path):
        from repro.telemetry import Ledger, LedgerEntry, RunManifest

        ledger = Ledger(tmp_path / "ledger.jsonl")
        manifest = RunManifest.collect(seed=1, config={})
        ledger.record("e2", {"flips": 30.0}, manifest)
        ledger.append(LedgerEntry.perf("bench_x", {"flips": 99.0}))
        ledger.record("e2", {"flips": 32.0, "hd": 49.7}, manifest)
        assert bench_compare.load_ledger_scalars(tmp_path) == {
            "e2.flips": 32.0,
            "e2.hd": 49.7,
        }

    def test_no_ledgers_is_empty(self, tmp_path):
        assert bench_compare.load_ledger_scalars(tmp_path) == {}

    def test_ledger_diff_is_informational(self, result_dirs, tmp_path, capsys):
        # a huge ledger-scalar swing must not flip the exit status
        old, new = result_dirs
        _write_ledger(old, {"e2": {"flips": 10.0}})
        _write_ledger(new, {"e2": {"flips": 100.0}})
        out = tmp_path / "diff.json"
        code = bench_compare.main(
            [str(old), str(new), "--threshold", "0.5", "--json", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "ledger scalars" in printed and "e2.flips" in printed
        payload = json.loads(out.read_text())
        ledger = {row["metric"]: row for row in payload["ledger"]}
        assert ledger["e2.flips"]["change"] == pytest.approx(9.0)
        assert payload["regressions"] == []


def _write_histogram_artefact(path, name, values, histograms):
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{name}.json").write_text(
        json.dumps({"name": name, "values": values, "histograms": histograms})
    )


class TestHistogramDiff:
    def test_load_histograms_flattens_quantiles(self, tmp_path):
        d = tmp_path / "results"
        _write_histogram_artefact(
            d,
            "bench",
            {"time_s": 1.0},
            {"batch.block_s": {"count": 8.0, "p50": 0.002, "p99": 0.005}},
        )
        assert bench_compare.load_histograms(d) == {
            "bench:batch.block_s.p50": 0.002,
            "bench:batch.block_s.p99": 0.005,
        }

    def test_missing_path_contributes_nothing(self, tmp_path):
        assert bench_compare.load_histograms(tmp_path / "nope") == {}

    def test_older_artefact_without_section_prints_na(self, tmp_path, capsys):
        """A baseline predating the histograms section must diff cleanly:
        n/a on its side, exit 0, never a KeyError."""
        old = tmp_path / "baseline"
        new = tmp_path / "candidate"
        _write_results(old, "bench", {"time_s": 1.0})
        _write_histogram_artefact(
            new,
            "bench",
            {"time_s": 1.0},
            {"batch.block_s": {"p50": 0.002, "p99": 0.005}},
        )
        out = tmp_path / "diff.json"
        code = bench_compare.main([str(old), str(new), "--json", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "latency histograms" in printed
        assert "n/a" in printed
        payload = json.loads(out.read_text())
        rows = {row["metric"]: row for row in payload["histograms"]}
        assert rows["bench:batch.block_s.p99"]["baseline"] is None
        assert rows["bench:batch.block_s.p99"]["candidate"] == 0.005

    def test_histogram_swing_never_gates(self, tmp_path, capsys):
        old = tmp_path / "baseline"
        new = tmp_path / "candidate"
        _write_histogram_artefact(
            old, "bench", {"time_s": 1.0}, {"m": {"p50": 0.001, "p99": 0.002}}
        )
        _write_histogram_artefact(
            new, "bench", {"time_s": 1.0}, {"m": {"p50": 0.1, "p99": 0.2}}
        )
        code = bench_compare.main([str(old), str(new)])
        assert code == 0  # a 100x p99 swing is informational, not a gate
        assert "+9900.0%" in capsys.readouterr().out


class TestTolerantChange:
    """The shared n/a helper both optional sections diff through."""

    def test_missing_side_is_none(self):
        assert bench_compare.tolerant_change(None, 2.0) is None
        assert bench_compare.tolerant_change(1.0, None) is None
        assert bench_compare.tolerant_change(None, None) is None

    def test_zero_baseline_is_none_never_zero_division(self):
        assert bench_compare.tolerant_change(0.0, 5.0) is None

    def test_relative_change(self):
        assert bench_compare.tolerant_change(2.0, 3.0) == pytest.approx(0.5)
        assert bench_compare.tolerant_change(2.0, 1.0) == pytest.approx(-0.5)


class TestGateFlag:
    """--gate promotes the memory and histogram sections to gating."""

    def _memory_pair(self, tmp_path, old_rss, new_rss):
        old = tmp_path / "baseline"
        new = tmp_path / "candidate"
        _write_results(
            old, "gate", {"x": 1.0}, memory={"peak_rss_bytes": old_rss}
        )
        _write_results(
            new, "gate", {"x": 1.0}, memory={"peak_rss_bytes": new_rss}
        )
        return old, new

    def test_memory_growth_gates_exit_one(self, tmp_path, capsys):
        old, new = self._memory_pair(tmp_path, 1.0e8, 9.0e8)
        code = bench_compare.main(
            [str(old), str(new), "--threshold", "0.5", "--gate"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "gated" in out  # the section announces its mode

    def test_memory_within_threshold_exits_zero(self, tmp_path, capsys):
        old, new = self._memory_pair(tmp_path, 1.0e8, 1.2e8)
        code = bench_compare.main(
            [str(old), str(new), "--threshold", "0.5", "--gate"]
        )
        assert code == 0

    def test_histogram_swing_gates_exit_one(self, tmp_path, capsys):
        old = tmp_path / "baseline"
        new = tmp_path / "candidate"
        _write_histogram_artefact(
            old, "bench", {"time_s": 1.0}, {"m": {"p50": 0.001, "p99": 0.002}}
        )
        _write_histogram_artefact(
            new, "bench", {"time_s": 1.0}, {"m": {"p50": 0.1, "p99": 0.2}}
        )
        code = bench_compare.main([str(old), str(new), "--gate"])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_na_rows_never_gate(self, tmp_path, capsys):
        """A side missing the section entirely stays n/a — even gated,
        absence is not a regression."""
        old = tmp_path / "baseline"
        new = tmp_path / "candidate"
        _write_results(old, "gate", {"x": 1.0})
        _write_results(
            new, "gate", {"x": 1.0}, memory={"peak_rss_bytes": 9.0e8}
        )
        code = bench_compare.main([str(old), str(new), "--gate"])
        assert code == 0
        assert "n/a" in capsys.readouterr().out

    def test_json_records_gate_and_section_regressions(
        self, tmp_path, capsys
    ):
        old, new = self._memory_pair(tmp_path, 1.0e8, 9.0e8)
        out = tmp_path / "diff.json"
        code = bench_compare.main(
            [str(old), str(new), "--threshold", "0.5", "--gate",
             "--json", str(out)]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["gate"] is True
        assert payload["regressions"] == ["gate:peak_rss_bytes"]
        rows = {row["metric"]: row for row in payload["memory"]}
        assert rows["gate:peak_rss_bytes"]["regression"] is True
        assert rows["gate:peak_rss_bytes"]["change"] == pytest.approx(8.0)

    def test_without_gate_same_swing_stays_informational(
        self, tmp_path, capsys
    ):
        old, new = self._memory_pair(tmp_path, 1.0e8, 9.0e8)
        code = bench_compare.main([str(old), str(new), "--threshold", "0.5"])
        assert code == 0
        assert "informational" in capsys.readouterr().out


def _write_service_artefact(path, name, values, service_metrics):
    path.mkdir(parents=True, exist_ok=True)
    payload = {
        "name": name,
        "values": values,
        "service": {"format": 1, "metrics": service_metrics},
    }
    (path / f"{name}.json").write_text(json.dumps(payload))


class TestServiceSection:
    def test_load_service_metrics_flattens(self, tmp_path):
        _write_service_artefact(
            tmp_path, "loadgen", {"auth_per_s": 9000.0},
            {"auth.p99_ms": 1.2, "auth.availability": 1.0, "note": "x"},
        )
        metrics = bench_compare.load_service_metrics(tmp_path)
        assert metrics == {
            "loadgen:auth.p99_ms": 1.2,
            "loadgen:auth.availability": 1.0,
        }

    def test_artefact_without_section_contributes_nothing(self, tmp_path):
        _write_results(tmp_path / "plain", "bench", {"time_s": 1.0})
        assert bench_compare.load_service_metrics(tmp_path / "plain") == {}

    def test_one_sided_service_renders_na(self, result_dirs, capsys):
        old, new = result_dirs
        _write_service_artefact(
            new, "loadgen", {"auth_per_s": 9000.0}, {"auth.p99_ms": 1.2}
        )
        code = bench_compare.main([str(old), str(new)])
        out = capsys.readouterr().out
        assert code == 0
        assert "service RED metrics" in out
        line = next(l for l in out.splitlines() if "auth.p99_ms" in l)
        assert "n/a" in line

    def test_service_swing_never_gates(self, result_dirs, capsys):
        """Even --gate must not flag service metrics: the map mixes
        bigger-is-better rates with smaller-is-better latencies."""
        old, new = result_dirs
        _write_service_artefact(
            old, "loadgen", {"auth_per_s": 9000.0}, {"auth.p99_ms": 1.0}
        )
        _write_service_artefact(
            new, "loadgen", {"auth_per_s": 9000.0}, {"auth.p99_ms": 100.0}
        )
        code = bench_compare.main([str(old), str(new), "--gate"])
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "auth.p99_ms" in l)
        assert "REGRESSION" not in line
        assert code == 0

    def test_json_service_section(self, result_dirs, tmp_path, capsys):
        old, new = result_dirs
        _write_service_artefact(
            old, "loadgen", {"auth_per_s": 1.0}, {"auth.p99_ms": 1.0}
        )
        _write_service_artefact(
            new, "loadgen", {"auth_per_s": 1.0}, {"auth.p99_ms": 2.0}
        )
        out_json = tmp_path / "diff.json"
        bench_compare.main([str(old), str(new), "--json", str(out_json)])
        payload = json.loads(out_json.read_text())
        (row,) = payload["service"]
        assert row["metric"] == "loadgen:auth.p99_ms"
        assert row["change"] == pytest.approx(1.0)

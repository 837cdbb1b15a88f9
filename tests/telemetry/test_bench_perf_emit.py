"""The benchmark harness's opt-in perf-ledger emit path.

``benchmarks/_common.emit`` appends one perf ledger entry per JSON
artefact when ``REPRO_PERF_LEDGER`` names a ledger file — and writes
nothing extra otherwise.  The harness is not an installable package, so
it is loaded here the same way the tools tests load the tools.
"""

import importlib.util
import pathlib
import sys

import pytest

from repro.telemetry import Ledger

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture()
def bench_common(tmp_path, monkeypatch):
    """A fresh ``benchmarks/_common`` writing artefacts under tmp_path."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        "bench_common_under_test", BENCHMARKS / "_common.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.RESULTS_DIR = tmp_path / "results"
    return module


class TestPerfLedgerEmit:
    VALUES = {"new_s": 0.5, "chips_years_per_s": 5000.0}

    def test_unset_env_writes_no_ledger(
        self, bench_common, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv("REPRO_PERF_LEDGER", raising=False)
        bench_common.emit("bench_t", "table", values=self.VALUES)
        assert (bench_common.RESULTS_DIR / "bench_t.json").exists()
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_env_opt_in_appends_one_entry(
        self, bench_common, tmp_path, monkeypatch, capsys
    ):
        ledger_path = tmp_path / "perf.jsonl"
        monkeypatch.setenv("REPRO_PERF_LEDGER", str(ledger_path))
        bench_common.emit(
            "bench_t",
            "table",
            values=self.VALUES,
            memory={"peak_rss_bytes": 1.0e8},
            histograms={"site": {"p50": 0.01, "p99": 0.02}},
        )
        (entry,) = Ledger(ledger_path).entries(kind="perf")
        assert entry.name == "bench_t"
        assert entry.scalars == {
            "new_s": 0.5,
            "chips_years_per_s": 5000.0,
            "peak_rss_bytes": 1.0e8,
            "site.p50": 0.01,
            "site.p99": 0.02,
        }

    def test_failed_append_warns_but_never_fails_the_bench(
        self, bench_common, tmp_path, monkeypatch, capsys
    ):
        # a directory at the ledger path makes the append raise
        ledger_path = tmp_path / "is_a_dir"
        ledger_path.mkdir()
        monkeypatch.setenv("REPRO_PERF_LEDGER", str(ledger_path))
        bench_common.emit("bench_t", "table", values=self.VALUES)
        assert "perf-ledger append" in capsys.readouterr().err
        # the artefact itself was still written
        assert (bench_common.RESULTS_DIR / "bench_t.json").exists()


class TestChipsYearsPerS:
    def test_throughput_arithmetic(self, bench_common):
        spec = importlib.util.spec_from_file_location(
            "bench_population_under_test", BENCHMARKS / "bench_population.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # 10 chips x 5.5 simulated years in 2 s -> 27.5 chip-years/s
        assert module.chips_years_per_s(10, [0.5, 5.0], 2.0) == pytest.approx(
            27.5
        )

"""Ledgers written before format 2 stay readable, with the same verdicts.

``data/run_ledger_format1.jsonl`` and ``data/perf_ledger_format1.jsonl``
were written by the separate run and perf ledgers (format 1): the run
file by ``run e2``/``run e3 --ledger`` at 6 chips x 32 ROs over seeds
1-7, the perf file by ``PerfLedger.record`` and
``entry_from_bench_payload``, the shape CI's cached
``perf-ledger/perf.jsonl`` holds.  The ``*.txt`` files are what that
code printed for ``history --robust --window 3``, ``check-anchors
--from-ledger`` and ``perf gate`` on them.
"""

import importlib.util
import pathlib

import pytest

from repro.cli import main
from repro.telemetry import Ledger, LedgerEntry, RunManifest

ROOT = pathlib.Path(__file__).resolve().parents[2]
DATA = pathlib.Path(__file__).parent / "data"
RUN = DATA / "run_ledger_format1.jsonl"
PERF = DATA / "perf_ledger_format1.jsonl"


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        f"{name}_tool", ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


validate_metrics = _tool("validate_metrics")


@pytest.fixture()
def mixed(tmp_path):
    """One file holding format-1 run and perf lines and format-2 lines
    of both kinds: ``--ledger`` and ``--perf-ledger`` may name it."""
    path = tmp_path / "ledger.jsonl"
    path.write_text(RUN.read_text() + PERF.read_text())
    ledger = Ledger(path)
    ledger.append(LedgerEntry.perf("bench_new", {"wall_s": 1.0}))
    manifest = RunManifest.collect(seed=1, config={"synthetic": True})
    ledger.record("e6", {"area_ratio": 24.0}, manifest)
    return path


class TestLoader:
    def test_perf_file_loads_as_perf_entries(self):
        ledger = Ledger(PERF)
        entries = ledger.entries(strict=True)
        assert len(entries) == 11 and ledger.n_skipped == 0
        assert {e.kind for e in entries} == {"perf"}
        assert [e.name for e in entries][-3:] == ["loadgen"] * 3
        # values and quantiles flatten into one scalar map
        assert set(entries[0].scalars) == {
            "wall_s",
            "chips_years_per_s",
            "peak_rss_bytes",
            "batch.sweep.p50",
            "batch.sweep.p99",
        }

    def test_run_file_loads_as_run_entries(self):
        entries = Ledger(RUN).entries(strict=True)
        assert [e.name for e in entries].count("e2") == 7
        assert {e.kind for e in entries} == {"run"}

    def test_mixed_file_splits_by_kind(self, mixed):
        ledger = Ledger(mixed)
        assert len(ledger.entries(kind="run", strict=True)) == 11
        assert len(ledger.entries(kind="perf", strict=True)) == 12


class TestSameVerdicts:
    """The new code prints what the format-1 code printed, byte for byte,
    also when both kinds share one file."""

    def test_history(self, capsys):
        assert main(["history", "--ledger", str(RUN), "--window", "3"]) == 0
        expected = (DATA / "run_ledger_format1.history.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_history_mixed_file_ignores_perf_lines(self, capsys, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(PERF.read_text() + RUN.read_text())
        assert main(["history", "--ledger", str(path), "--window", "3"]) == 0
        expected = (DATA / "run_ledger_format1.history.txt").read_text()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("order", ["perf-only", "run-first", "perf-first"])
    def test_perf_gate(self, capsys, tmp_path, order):
        path = tmp_path / "ledger.jsonl"
        text = {
            "perf-only": PERF.read_text(),
            "run-first": RUN.read_text() + PERF.read_text(),
            "perf-first": PERF.read_text() + RUN.read_text(),
        }[order]
        path.write_text(text)
        assert main(["perf", "gate", "--perf-ledger", str(path)]) == 1
        expected = (DATA / "perf_ledger_format1.gate.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_check_anchors_from_ledger(self, capsys, tmp_path):
        path = tmp_path / "run_ledger_format1.jsonl"
        path.write_text(RUN.read_text() + PERF.read_text())
        assert main(["check-anchors", "--from-ledger", str(path)]) == 0
        expected = (DATA / "run_ledger_format1.anchors.txt").read_text()
        assert capsys.readouterr().out == expected.replace(
            "ledger run_ledger_format1.jsonl", f"ledger {path}"
        )

    def test_check_anchors_from_mixed_ledger(self, capsys, mixed):
        assert main(["check-anchors", "--from-ledger", str(RUN)]) == 0
        run_only = capsys.readouterr().out
        assert main(["check-anchors", "--from-ledger", str(mixed)]) == 0
        out = capsys.readouterr().out
        # perf lines are ignored; the e6 format-2 run entry is counted
        assert "(11 entries)" in out
        assert out.split("\n", 1)[1] == run_only.split("\n", 1)[1]


class TestValidateMetrics:
    @pytest.mark.parametrize("name", [RUN.name, PERF.name])
    def test_format1_files_validate(self, name):
        assert validate_metrics.main(["--ledger", str(DATA / name)]) == 0

    def test_mixed_formats_and_kinds_validate(self, mixed):
        assert validate_metrics.main(["--ledger", str(mixed)]) == 0

    def test_non_finite_perf_value_is_reported(self):
        problems = validate_metrics.validate_ledger_entries(
            [{"format": 1, "bench": "b", "values": {"wall_s": float("nan")}}]
        )
        assert problems and "wall_s" in problems[0]

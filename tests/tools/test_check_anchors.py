"""tools/check_anchors.py: the CI anchor gate's contract."""

import importlib.util
import pathlib

import pytest

from repro.telemetry import Ledger, RunManifest

_SPEC = importlib.util.spec_from_file_location(
    "check_anchors_tool",
    pathlib.Path(__file__).resolve().parents[2] / "tools" / "check_anchors.py",
)
check_anchors_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_anchors_tool)

#: every anchor's metric at its exact paper value, split by experiment
PAPER_PERFECT = {
    "e2": {
        "ro-puf.flips_at_10y_pct": 32.0,
        "aro-puf.flips_at_10y_pct": 7.7,
        "improvement_factor_10y": 4.16,
    },
    "e3": {
        "ro-puf.uniqueness_pct": 45.0,
        "aro-puf.uniqueness_pct": 49.67,
    },
    "e4": {"aro-puf.uniformity_pct": 50.0},
}


def write_ledger(path, scalars_by_experiment):
    manifest = RunManifest.collect(seed=1, config={"synthetic": True})
    ledger = Ledger(path)
    for experiment, scalars in scalars_by_experiment.items():
        ledger.record(experiment, scalars, manifest)
    return path


class TestCheckAnchorsTool:
    def test_perfect_ledger_exits_zero(self, tmp_path, capsys):
        path = write_ledger(tmp_path / "ledger.jsonl", PAPER_PERFECT)
        assert check_anchors_tool.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "worst status: pass" in out

    def test_out_of_band_exits_one(self, tmp_path, capsys):
        bad = {k: dict(v) for k, v in PAPER_PERFECT.items()}
        bad["e2"]["aro-puf.flips_at_10y_pct"] = 31.0
        path = write_ledger(tmp_path / "ledger.jsonl", bad)
        assert check_anchors_tool.main([str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_warn_band_still_passes(self, tmp_path, capsys):
        warm = {k: dict(v) for k, v in PAPER_PERFECT.items()}
        # between tol_pass (2.5) and tol_fail (8.0) of the 45% anchor
        warm["e3"]["ro-puf.uniqueness_pct"] = 41.0
        path = write_ledger(tmp_path / "ledger.jsonl", warm)
        assert check_anchors_tool.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "WARN" in out and "worst status: warn" in out

    def test_latest_entry_wins(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        bad = {k: dict(v) for k, v in PAPER_PERFECT.items()}
        bad["e2"]["aro-puf.flips_at_10y_pct"] = 31.0
        write_ledger(path, bad)
        write_ledger(path, PAPER_PERFECT)  # appends newer, in-band entries
        assert check_anchors_tool.main([str(path)]) == 0

    def test_missing_metric_needs_require_all(self, tmp_path, capsys):
        path = write_ledger(
            tmp_path / "ledger.jsonl", {"e2": PAPER_PERFECT["e2"]}
        )
        assert check_anchors_tool.main([str(path)]) == 0
        assert check_anchors_tool.main([str(path), "--require-all"]) == 1

    def test_missing_ledger_is_usage_error(self, tmp_path, capsys):
        code = check_anchors_tool.main([str(tmp_path / "none.jsonl")])
        assert code == 2
        assert "no such ledger" in capsys.readouterr().err

    def test_empty_ledger_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert check_anchors_tool.main([str(path)]) == 2
        assert "no ledger entries" in capsys.readouterr().err

"""Anchor registry: tolerance bands, verdicts, and ledger flattening."""

import pytest

from repro.telemetry.anchors import (
    ANCHOR_EXPERIMENTS,
    Anchor,
    PAPER_ANCHORS,
    check_anchors,
    latest_scalars,
    render_verdicts,
    worst_status,
)
from repro.telemetry.ledger import LedgerEntry
from repro.telemetry.manifest import RunManifest


@pytest.fixture(scope="module")
def manifest():
    return RunManifest.collect(seed=3, config={"n_chips": 4})


def make_anchor(**overrides):
    kwargs = dict(
        name="test-anchor",
        metric="e2.x",
        paper_value=10.0,
        tol_pass=1.0,
        tol_fail=3.0,
    )
    kwargs.update(overrides)
    return Anchor(**kwargs)


class TestAnchorJudge:
    @pytest.mark.parametrize(
        "measured,expected",
        [
            (10.0, "pass"),
            (11.0, "pass"),  # exactly tol_pass
            (9.0, "pass"),
            (12.5, "warn"),
            (13.0, "warn"),  # exactly tol_fail
            (7.5, "warn"),
            (13.1, "fail"),
            (6.0, "fail"),
        ],
    )
    def test_bands(self, measured, expected):
        assert make_anchor().judge(measured) == expected

    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            make_anchor(tol_pass=0.0)

    def test_fail_band_contains_pass_band(self):
        with pytest.raises(ValueError, match="tol_fail"):
            make_anchor(tol_pass=3.0, tol_fail=1.0)


class TestRegistry:
    def test_abstract_values_present(self):
        by_name = {a.name: a for a in PAPER_ANCHORS}
        assert by_name["conventional-flips-10y"].paper_value == 32.0
        assert by_name["aro-flips-10y"].paper_value == 7.7
        assert by_name["aro-uniqueness"].paper_value == 49.67

    def test_metrics_are_namespaced_by_experiment(self):
        for anchor in PAPER_ANCHORS:
            assert anchor.experiment
            assert anchor.metric.startswith(anchor.experiment + ".")

    def test_anchor_experiments_cover_registry(self):
        assert set(ANCHOR_EXPERIMENTS) == {a.experiment for a in PAPER_ANCHORS}


class TestCheckAnchors:
    def test_statuses_and_missing(self):
        anchors = [
            make_anchor(name="a", metric="m.a"),
            make_anchor(name="b", metric="m.b"),
            make_anchor(name="c", metric="m.c"),
        ]
        verdicts = check_anchors({"m.a": 10.5, "m.b": 20.0}, anchors)
        assert [v.status for v in verdicts] == ["pass", "fail", "missing"]
        assert verdicts[0].deviation == pytest.approx(0.5)
        assert verdicts[2].measured is None and verdicts[2].deviation is None

    def test_worst_status_ordering(self):
        anchors = [make_anchor(name="a", metric="m.a")]
        assert worst_status(check_anchors({"m.a": 10.0}, anchors)) == "pass"
        assert worst_status(check_anchors({"m.a": 12.0}, anchors)) == "warn"
        assert worst_status(check_anchors({"m.a": 20.0}, anchors)) == "fail"

    def test_missing_ignored_unless_required(self):
        anchors = [make_anchor(name="a", metric="m.gone")]
        verdicts = check_anchors({}, anchors)
        assert worst_status(verdicts) == "pass"
        assert worst_status(verdicts, missing_is_fail=True) == "fail"

    def test_empty_is_pass(self):
        assert worst_status([]) == "pass"


class TestLatestScalars:
    def test_keys_namespaced_and_later_wins(self, manifest):
        entries = [
            LedgerEntry.collect("e2", {"flips": 30.0}, manifest),
            LedgerEntry.collect("e3", {"uniq": 49.0}, manifest),
            LedgerEntry.collect("e2", {"flips": 32.0}, manifest),
        ]
        merged = latest_scalars(entries)
        assert merged == {"e2.flips": 32.0, "e3.uniq": 49.0}

    def test_empty(self):
        assert latest_scalars([]) == {}


class TestRender:
    def test_rows_show_status_and_deviation(self):
        anchors = [
            make_anchor(name="good", metric="m.a"),
            make_anchor(name="bad", metric="m.b"),
            make_anchor(name="gone", metric="m.c"),
        ]
        text = render_verdicts(check_anchors({"m.a": 10.5, "m.b": 20.0}, anchors))
        lines = text.splitlines()
        assert lines[0].startswith("ok") and "good" in lines[0]
        assert "(+0.50 %)" in lines[0]
        assert lines[1].startswith("FAIL") and "bad" in lines[1]
        assert lines[2].startswith("----") and "--" in lines[2]

    def test_empty(self):
        assert "no anchors" in render_verdicts([])


class TestForecastRecallBands:
    """The forensics warn bands: one-sided encoding against an ideal 1.0."""

    @pytest.fixture(
        params=["conventional-forecast-recall", "aro-forecast-recall"]
    )
    def anchor(self, request):
        return {a.name: a for a in PAPER_ANCHORS}[request.param]

    def test_present_and_sourced_from_e13(self, anchor):
        assert anchor.experiment == "e13"
        assert anchor.metric.endswith(".forecast_recall")

    def test_band_edges(self, anchor):
        assert anchor.judge(1.0) == "pass"
        assert anchor.judge(0.8) == "pass"  # the gate: recall >= 0.8
        assert anchor.judge(0.79) == "warn"
        assert anchor.judge(0.65) == "warn"
        assert anchor.judge(0.64) == "fail"

    def test_e13_joins_anchor_experiments(self):
        assert "e13" in ANCHOR_EXPERIMENTS

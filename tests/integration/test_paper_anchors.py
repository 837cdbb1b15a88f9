"""Statistical anchors from the paper's abstract, at reduced scale.

The full 50-chip runs are ``repro run e2`` / ``run e3``; here a 25-chip
population (seeded) must land inside generous bands around the abstract's
numbers.  These are the tests that fail if a refactor silently breaks the
physics calibration.
"""

import pytest

from repro.analysis import (
    ExperimentConfig,
    aging_bitflips,
    margin_forensics,
    uniqueness_experiment,
)


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(n_chips=25, n_ros=256, seed=20140324)


@pytest.fixture(scope="module")
def bitflips(config):
    return aging_bitflips(config, years=(5.0, 10.0))


@pytest.fixture(scope="module")
def uniq(config):
    return uniqueness_experiment(config)


class TestAgingAnchors:
    def test_conventional_ten_year_flips_near_32_percent(self, bitflips):
        assert bitflips.at_ten_years()["ro-puf"] == pytest.approx(32.0, abs=5.0)

    def test_aro_ten_year_flips_near_7_7_percent(self, bitflips):
        assert bitflips.at_ten_years()["aro-puf"] == pytest.approx(7.7, abs=2.5)

    def test_improvement_factor_at_least_3x(self, bitflips):
        final = bitflips.at_ten_years()
        assert final["ro-puf"] / final["aro-puf"] > 3.0

    def test_flips_grow_with_time(self, bitflips):
        for s in bitflips.series.values():
            assert s.y_at(5.0) < s.y_at(10.0)


class TestForecastRecallAnchor:
    """The forensics warn-band gate: the enrolment-time margin forecast
    must catch >= 80 % of the bits that actually flip by 10 years on the
    seeded reference population (50 chips x 256 ROs = 128 bits/chip)."""

    @pytest.fixture(scope="class")
    def forensics(self):
        config = ExperimentConfig(n_chips=50, n_ros=256, seed=20140324)
        return margin_forensics(config, years=(10.0,))

    def test_recall_at_least_0_8_both_designs(self, forensics):
        for name, rep in forensics.reports.items():
            assert rep.outcome.recall >= 0.8, (
                f"{name}: forecast recall {rep.outcome.recall:.3f} < 0.8"
            )

    def test_aro_forecast_is_selective(self, forensics):
        """The ARO's at-risk set must be a minority of its bits — the
        recall bar is only meaningful if the forecast doesn't flag
        everything (the conventional design's set saturates by design)."""
        aro = forensics.reports["aro-puf"]
        assert aro.forecast.at_risk_fraction < 0.5

    def test_anchor_bands_would_pass(self, forensics):
        """The same numbers, judged through the anchors registry."""
        from repro.telemetry.anchors import PAPER_ANCHORS, check_anchors

        scalars = {
            f"e13.{k}": v for k, v in forensics.ledger_scalars().items()
        }
        recall_anchors = [
            a for a in PAPER_ANCHORS if a.metric.endswith("forecast_recall")
        ]
        assert len(recall_anchors) == 2
        for verdict in check_anchors(scalars, recall_anchors):
            assert verdict.status == "pass", (
                f"{verdict.anchor.name}: {verdict.measured} -> {verdict.status}"
            )


class TestUniquenessAnchors:
    def test_conventional_hd_near_45_percent(self, uniq):
        assert uniq.reports["ro-puf"].percent() == pytest.approx(45.0, abs=2.5)

    def test_aro_hd_near_ideal(self, uniq):
        assert uniq.reports["aro-puf"].percent() == pytest.approx(49.67, abs=1.5)

    def test_aro_closer_to_ideal_than_conventional(self, uniq):
        conv_gap = abs(uniq.reports["ro-puf"].percent() - 50.0)
        aro_gap = abs(uniq.reports["aro-puf"].percent() - 50.0)
        assert aro_gap < conv_gap

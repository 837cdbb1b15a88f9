"""Experiment harness: structure and qualitative shape at small scale.

Quantitative anchors are asserted (with bands) in
tests/integration/test_paper_anchors.py; the paper-scale tables are what
``repro run eN`` prints, pinned byte for byte by
bench/golden/paper_suite.txt and quoted in EXPERIMENTS.md.
"""

import pytest

from repro.analysis import (
    ExperimentConfig,
    aging_bitflips,
    authentication_experiment,
    duty_ablation,
    ecc_area_experiment,
    environmental_reliability,
    experiments,
    frequency_degradation,
    layout_ablation,
    masking_ablation,
    randomness_experiment,
    stage_ablation,
    uniqueness_experiment,
)
from repro import cli
from repro.core import make_study
from repro.ecc import standard_codes


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(n_chips=6, n_ros=32, seed=7)


YEARS = (1.0, 5.0, 10.0)


class TestFrequencyDegradation:
    def test_structure_and_shape(self, config):
        res = frequency_degradation(config, years=YEARS)
        assert set(res.series) == {"ro-puf", "aro-puf"}
        conv = res.series["ro-puf"]
        assert conv.x == list(YEARS)
        # degradation grows with time and stays percent-scale
        assert conv.y == sorted(conv.y)
        assert 0 < conv.y[-1] < 10

    def test_aro_degrades_less(self, config):
        res = frequency_degradation(config, years=YEARS)
        assert (
            res.series["aro-puf"].y_at(10.0) < 0.5 * res.series["ro-puf"].y_at(10.0)
        )

    def test_fresh_frequency_reported(self, config):
        res = frequency_degradation(config, years=YEARS)
        assert 0.5 < res.fresh_frequency_ghz["ro-puf"] < 2.0


class TestAgingBitflips:
    def test_monotone_flip_growth(self, config):
        res = aging_bitflips(config, years=YEARS)
        for s in res.series.values():
            assert s.y == sorted(s.y)

    def test_aro_beats_conventional(self, config):
        res = aging_bitflips(config, years=YEARS)
        final = res.at_ten_years()
        assert final["aro-puf"] < 0.6 * final["ro-puf"]

    def test_final_reports_attached(self, config):
        res = aging_bitflips(config, years=YEARS)
        assert res.final_reports["ro-puf"].per_chip.shape == (6,)


class TestUniqueness:
    def test_reports_and_histograms(self, config):
        res = uniqueness_experiment(config, bins=10)
        assert 25 < res.reports["ro-puf"].percent() < 55
        centers, counts = res.histograms["aro-puf"]
        assert centers.shape == (10,)
        assert counts.sum() == 6 * 5 // 2


class TestRandomness:
    def test_all_sections_present(self, config):
        res = randomness_experiment(config)
        for section in (res.uniformity, res.aliasing, res.battery):
            assert set(section) == {"ro-puf", "aro-puf"}
        assert 0.2 < res.uniformity["aro-puf"].mean < 0.8
        assert len(res.battery["aro-puf"].p_values) == 7

    def test_aro_aliasing_spread_tighter_at_paper_scale(self):
        """Per-bit aliasing spread is the systematic component's
        fingerprint.  ``run e4`` prints only the mean and the worst bias,
        so the spread is asserted here, at 50 chips x 256 ROs."""
        res = randomness_experiment(ExperimentConfig())
        assert (
            res.aliasing["aro-puf"].per_bit.std()
            < res.aliasing["ro-puf"].per_bit.std()
        )


class TestEnvironmental:
    def test_corner_series(self, config):
        res = environmental_reliability(
            config, temperatures_c=(25.0, 85.0), vdd_rel=(0.9, 1.0), votes=3
        )
        conv_t = res.temperature_series["ro-puf"]
        assert conv_t.x == [25.0, 85.0]
        # flips at the extreme corner exceed the nominal re-read noise
        assert conv_t.y[1] >= conv_t.y[0]
        assert res.voltage_series["aro-puf"].x == [0.9, 1.0]


class TestEccArea:
    def test_single_policy_row(self):
        res = ecc_area_experiment(
            policies=(("test policy", 0.20, 0.05),),
            bch_palette=standard_codes(max_m=8, max_t=20),
        )
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.conv is not None and row.aro is not None
        assert row.ratio > 1.5
        assert row.conv.raw_bits > 2 * row.aro.raw_bits

    def test_infeasible_policy_yields_none(self):
        res = ecc_area_experiment(
            policies=(("hopeless", 0.49, 0.49),),
            bch_palette=standard_codes(max_m=6, max_t=6),
        )
        assert res.rows[0].conv is None
        assert res.rows[0].ratio is None


class TestDutyAblation:
    def test_flips_grow_with_duty(self, config):
        res = duty_ablation(config, duties=(1e-7, 1e-4, 1e-2), t_years=10.0)
        assert res.duty_series.y == sorted(res.duty_series.y)

    def test_policy_ordering(self, config):
        res = duty_ablation(config, duties=(1e-7,), t_years=10.0)
        rows = dict(res.policy_rows)
        assert rows["aro-puf / recovery"] < rows["ro-puf / parked static"]
        assert rows["ro-puf / free running"] > rows["aro-puf / recovery"]


class TestLayoutAblation:
    def test_conventional_uniqueness_falls_with_systematics(self, config):
        res = layout_ablation(config, sys_multipliers=(0.0, 3.0))
        conv = res.systematic_series["ro-puf"]
        assert conv.y[1] < conv.y[0]

    def test_aro_stays_flat(self, config):
        res = layout_ablation(config, sys_multipliers=(0.0, 3.0))
        aro = res.systematic_series["aro-puf"]
        assert abs(aro.y[1] - aro.y[0]) < abs(
            res.systematic_series["ro-puf"].y[1]
            - res.systematic_series["ro-puf"].y[0]
        )

    def test_pairing_rows(self, config):
        res = layout_ablation(config, sys_multipliers=(1.0,))
        labels = [label for label, _ in res.pairing_rows]
        assert "ro-puf / neighbour" in labels
        assert "aro-puf / distant" in labels


class TestJobsDispatch:
    """``ExperimentConfig.jobs`` routes to the parallel engine without
    changing any experiment's numbers."""

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ExperimentConfig(n_chips=4, n_ros=16, jobs=0)

    def test_jobs_excluded_from_results(self, config):
        parallel = ExperimentConfig(n_chips=6, n_ros=32, seed=7, jobs=2)
        serial = aging_bitflips(config, years=YEARS)
        sharded = aging_bitflips(parallel, years=YEARS)
        for name, series in serial.series.items():
            assert series.y == sharded.series[name].y

    def test_batch_study_for_dispatches(self, config):
        from repro import aro_design

        design = aro_design(n_ros=32)
        parallel = ExperimentConfig(n_chips=6, n_ros=32, seed=7, jobs=2)
        with parallel.batch_study_for(design) as study:
            assert study.jobs == 2
        with config.batch_study_for(design) as study:
            assert study.jobs == 1


class TestMarginForensics:
    """E13: per-bit margin provenance (structure at small scale)."""

    @pytest.fixture(scope="class")
    def result(self, config):
        from repro.analysis import margin_forensics

        return margin_forensics(config, years=(5.0,))

    def test_both_designs_reported(self, result):
        assert set(result.reports) == {"ro-puf", "aro-puf"}
        assert result.t_horizon == 10.0

    def test_ledger_scalars_complete_and_finite(self, result):
        import math

        scalars = result.ledger_scalars()
        for design in ("ro-puf", "aro-puf"):
            for field in (
                "margin_p5_pct",
                "margin_p50_pct",
                "drift_rms_pct",
                "at_risk_pct",
                "flipped_pct",
                "forecast_recall",
                "forecast_precision",
            ):
                value = scalars[f"{design}.{field}"]
                assert math.isfinite(value)
        assert 0.0 <= scalars["aro-puf.forecast_recall"] <= 1.0

    def test_flipped_pct_agrees_with_e2(self, result, config):
        """Same seed, same silicon: forensics flips == E2's 10-year flips."""
        flips = aging_bitflips(config, years=(10.0,))
        scalars = result.ledger_scalars()
        for name in ("ro-puf", "aro-puf"):
            assert scalars[f"{name}.flipped_pct"] == pytest.approx(
                flips.series[name].y_at(10.0)
            )

    def test_aro_drifts_less_than_conventional(self, result):
        scalars = result.ledger_scalars()
        assert (
            scalars["aro-puf.drift_rms_pct"]
            < 0.5 * scalars["ro-puf.drift_rms_pct"]
        )

    def test_jobs_dispatch_identical_scalars(self, config):
        from repro.analysis import margin_forensics

        parallel = ExperimentConfig(n_chips=6, n_ros=32, seed=7, jobs=2)
        serial = margin_forensics(config, years=(5.0,)).ledger_scalars()
        sharded = margin_forensics(parallel, years=(5.0,)).ledger_scalars()
        assert serial == sharded


class TestOneEngine:
    """E4, E7, E8, E9, E10 and E12 fabricate through ``make_batch_study``
    and read only ``design``, ``n_chips``, ``frequencies`` and
    ``responses``.  With the per-chip ``make_study`` put back in its place
    every ledger scalar must come out the same, bit for bit."""

    EXPERIMENTS = {
        "e4": randomness_experiment,
        "e7": duty_ablation,
        "e8": layout_ablation,
        "e9": masking_ablation,
        "e10": authentication_experiment,
        "e12": stage_ablation,
    }

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_ledger_scalars_match_per_chip_studies(self, config, monkeypatch, name):
        run = self.EXPERIMENTS[name]
        batched = run(config).ledger_scalars()

        calls = []

        def per_chip(
            design, n_chips, *, mission=None, idle_policy=None, rng=None,
            jobs=1, store="ram", block_size=None, store_dir=None,
        ):
            # the execution knobs never change a result, so the per-chip
            # reference takes and ignores them, and has nothing to close
            calls.append(design.name)
            study = make_study(
                design, n_chips, mission=mission, idle_policy=idle_policy, rng=rng
            )
            study.close = lambda: None
            return study

        monkeypatch.setattr(experiments, "make_batch_study", per_chip)
        per_chip_scalars = run(config).ledger_scalars()
        assert calls
        assert batched
        assert batched == per_chip_scalars


class TestRunContext:
    """Inside the CLI's run context every experiment takes the two default
    populations and their prefactor draw from one fabrication; every
    ledger scalar must equal a run that fabricates each study afresh, by
    ``float.hex``."""

    @pytest.mark.parametrize(
        "key", sorted(k for k in cli.EXPERIMENTS if k != "e6")
    )
    def test_ledger_scalars_match_fresh_fabrication(self, config, key):
        run = cli.EXPERIMENTS[key].run

        def scalars():
            return {k: float(v).hex() for k, v in run(config).ledger_scalars().items()}

        fresh = scalars()
        with config.run_context():
            shared = scalars()
        assert fresh
        assert shared == fresh

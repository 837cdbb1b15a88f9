"""Render functions: every experiment result serialises to a sane table."""

import pytest

from repro.analysis import (
    ExperimentConfig,
    aging_bitflips,
    duty_ablation,
    ecc_area_experiment,
    environmental_reliability,
    frequency_degradation,
    layout_ablation,
    randomness_experiment,
    uniqueness_experiment,
)
from repro.analysis.render import (
    PAPER,
    render_e1,
    render_e2,
    render_e3,
    render_e4,
    render_e5,
    render_e6,
    render_e7,
    render_e8,
)
from repro.ecc import standard_codes


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(n_chips=4, n_ros=16, seed=13)


class TestRenderers:
    def test_e1(self, config):
        text = render_e1(frequency_degradation(config, years=(1.0, 10.0)))
        assert "E1" in text and "ro-puf" in text and "GHz" in text

    def test_e2_mentions_paper_anchor(self, config):
        text = render_e2(aging_bitflips(config, years=(1.0, 10.0)))
        assert f"paper {PAPER['conv_flips_10y']}" in text
        assert "10y endpoints" in text

    def test_e3_has_histogram(self, config):
        text = render_e3(uniqueness_experiment(config))
        assert "HD distribution histogram" in text
        assert "49.67" in text  # paper column

    def test_e4_has_battery(self, config):
        text = render_e4(randomness_experiment(config))
        assert "monobit" in text and "cumulative_sums" in text

    def test_e5_two_sweeps(self, config):
        res = environmental_reliability(
            config, temperatures_c=(25.0, 85.0), vdd_rel=(0.9, 1.1), votes=1
        )
        text = render_e5(res)
        assert "temperature" in text and "supply voltage" in text

    def test_e6_marks_infeasible(self):
        res = ecc_area_experiment(
            policies=(("hopeless", 0.49, 0.49),),
            bch_palette=standard_codes(max_m=6, max_t=4),
        )
        text = render_e6(res)
        assert "infeasible" in text

    def test_e6_ratio_column(self):
        res = ecc_area_experiment(
            policies=(("easy", 0.15, 0.05),),
            bch_palette=standard_codes(max_m=8, max_t=20),
        )
        text = render_e6(res)
        assert "x" in text.splitlines()[-1]

    def test_e7(self, config):
        text = render_e7(duty_ablation(config, duties=(1e-7, 1e-4)))
        assert "eval duty" in text and "parked static" in text
        assert "parked toggling" in text

    def test_e8(self, config):
        text = render_e8(layout_ablation(config, sys_multipliers=(0.0, 1.0)))
        assert "systematic" in text and "distant" in text


class TestPaperValues:
    def test_abstract_numbers_come_from_the_anchor_registry(self):
        from repro.telemetry.anchors import PAPER_ANCHORS

        by_name = {a.name: a.paper_value for a in PAPER_ANCHORS}
        assert PAPER["conv_flips_10y"] == by_name["conventional-flips-10y"]
        assert PAPER["aro_flips_10y"] == by_name["aro-flips-10y"]
        assert PAPER["conv_hd"] == by_name["conventional-uniqueness"]
        assert PAPER["aro_hd"] == by_name["aro-uniqueness"]

    def test_registry_descriptions_print_the_paper_values(self):
        from repro.analysis.render import EXPERIMENTS

        assert EXPERIMENTS["e2"].description.endswith("(32 % vs 7.7 % @ 10 y)")
        assert EXPERIMENTS["e3"].description.endswith("(45 % vs 49.67 %)")
        assert EXPERIMENTS["e6"].description.endswith("(~24x band)")

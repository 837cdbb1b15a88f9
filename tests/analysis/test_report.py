"""Markdown report renderer."""

import pytest

from repro.analysis import ExperimentConfig
from repro.analysis.render import EXPERIMENTS
from repro.analysis.report import ANCHOR_TABLE_EXPERIMENTS, generate_report


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(n_chips=4, n_ros=16, seed=41)


@pytest.fixture(scope="module")
def results(config):
    with config.run_context():
        return {key: EXPERIMENTS[key].run(config) for key in ("e2", "e3")}


class TestGenerateReport:
    def test_subset_report(self, config, results, tmp_path):
        path = tmp_path / "report.md"
        text = generate_report(config, results, ("e2", "e3"), path=path)
        assert path.read_text() == text
        assert "# ARO-PUF reproduction report" in text
        assert "## Paper anchors" in text
        assert "## E2" in text and "## E3" in text
        assert "## E6" not in text

    def test_anchor_table_present(self, config, results):
        text = generate_report(config, results, ("e3",))
        assert "| Anchor | Paper | Measured |" in text
        assert "49.67" in text
        assert "## E2" not in text  # E2 feeds the table, not a section

    def test_scale_recorded(self, config, results):
        text = generate_report(config, results, ("e3",))
        assert "4 chips x 16 ROs" in text

    def test_unknown_experiment_rejected(self, config, results):
        with pytest.raises(ValueError, match="e99"):
            generate_report(config, results, ("e99",))

    def test_anchor_table_needs_e2_and_e3(self, config, results):
        assert ANCHOR_TABLE_EXPERIMENTS == ("e2", "e3")
        with pytest.raises(ValueError, match="e2"):
            generate_report(config, {"e3": results["e3"]}, ("e3",))

    def test_anchor_table_reads_the_results(self, config, results):
        """The table prints the given results against the registry's paper
        values; it measures nothing itself."""
        text = generate_report(config, results, experiments=())
        final = results["e2"].at_ten_years()
        uniq = results["e3"].reports
        assert (
            f"| conventional bits flipped @ 10 y | 32 % | {final['ro-puf']:.2f} % |"
            in text
        )
        assert f"| ARO bits flipped @ 10 y | 7.7 % | {final['aro-puf']:.2f} % |" in text
        assert (
            f"| conventional inter-chip HD | ~45 % | {uniq['ro-puf'].percent():.2f} % |"
            in text
        )
        assert (
            f"| ARO inter-chip HD | 49.67 % | {uniq['aro-puf'].percent():.2f} % |"
            in text
        )

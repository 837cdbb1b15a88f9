"""Margin capture: the assembled forensics record.

The bit-identity tests here are the capture's acceptance criterion:
capturing must change no response bit, the derived bits and histograms
must equal the engine's own, and the assembled record must reconcile
exactly (margins sign-match bits, the mechanism split sums to the total
delta, histogram counts total the population).
"""

import numpy as np
import pytest

from repro.core import aro_design, conventional_design, make_batch_study
from repro.environment.conditions import OperatingConditions, celsius
from repro.forensics import capture_forensics
from repro.metrics.margins import histogram_edges, relative_margins

SEED = 20140324
DESIGN = aro_design(n_ros=16, n_stages=3)


def make_case(design=DESIGN, n_chips=6):
    return make_batch_study(design, n_chips, rng=SEED)


@pytest.fixture(scope="module")
def report():
    return capture_forensics(make_case(), design_label="aro-puf")


class TestCaptureBitIdentity:
    def test_capture_changes_no_response_bits(self):
        """Enabling forensics must not perturb the evaluation."""
        bare = make_case()
        expected = {t: bare.responses(t_years=t) for t in (0.0, 5.0, 10.0)}
        captured = make_case()
        report = capture_forensics(
            captured, design_label="aro-puf", years=(5.0,)
        )
        for t, bits in expected.items():
            assert np.array_equal(report.bits[t], bits)
            assert report.bits[t].dtype == bits.dtype
        # margins come from the engine's frequencies, and each histogram
        # equals the engine's own fused-sink histogram
        edges = histogram_edges()
        for t in report.years:
            assert np.array_equal(
                report.margins[t],
                relative_margins(bare.frequencies(t), report.pairs),
            )
            assert np.array_equal(
                report.histograms[t], bare.margin_histogram(edges, None, t)
            )
        # and the study still answers identically after the capture
        for t, bits in expected.items():
            assert np.array_equal(captured.responses(t_years=t), bits)


ENGINES = {
    "ram": {},
    "jobs2": {"jobs": 2},
    "mmap": {"store": "mmap", "block_size": 4},
}


class TestCaptureAsksTheEngine:
    """Every corner of the record is derived from the engine's corner."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize(
        "design",
        [DESIGN, conventional_design(n_ros=16, n_stages=3)],
        ids=["aro-puf", "ro-puf"],
    )
    def test_corners_are_engine_corners(self, design, engine):
        ram = make_case(design)
        with make_batch_study(
            design, 6, rng=SEED, **ENGINES[engine]
        ) as study:
            report = capture_forensics(study, years=(2.0,))
        for t in report.years:
            assert np.array_equal(
                report.margins[t],
                relative_margins(ram.frequencies(t), report.pairs),
            )
            assert np.array_equal(report.bits[t], ram.responses(t_years=t))
        for mech, shift in (("bti", report.bti_shift), ("hci", report.hci_shift)):
            counterfactual = relative_margins(
                ram.mechanism_frequencies(report.t_horizon, mech), report.pairs
            )
            assert np.array_equal(shift, counterfactual - report.fresh_margins)

    def test_corner_conditions(self):
        cond = OperatingConditions(temperature_k=celsius(85.0), vdd=1.1)
        study = make_case()
        hot = capture_forensics(study, years=(5.0,), conditions=cond)
        nominal = capture_forensics(study, years=(5.0,))
        for t in hot.years:
            assert np.array_equal(
                hot.margins[t],
                relative_margins(study.frequencies(t, cond), hot.pairs),
            )
            assert np.array_equal(
                hot.bits[t], study.responses(t_years=t, conditions=cond)
            )
        assert not np.array_equal(hot.fresh_margins, nominal.fresh_margins)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    @pytest.mark.parametrize("knob", ["years", "t_horizon"])
    def test_non_finite_year_rejected(self, knob, t):
        kwargs = {"years": (t,)} if knob == "years" else {"t_horizon": t}
        with pytest.raises(ValueError, match="finite"):
            capture_forensics(make_case(), **kwargs)


class TestDesignForensicsRecord:
    def test_grid_and_geometry(self, report):
        assert report.years[0] == 0.0
        assert report.t_horizon == 10.0
        assert report.years == tuple(sorted(set(report.years)))
        assert report.n_chips == 6
        assert report.n_bits == DESIGN.n_bits

    def test_margin_signs_match_bits_everywhere(self, report):
        for t in report.years:
            assert np.array_equal(
                report.margins[t] > 0, report.bits[t].astype(bool)
            )

    def test_flipped_matches_margin_sign_changes(self, report):
        sign_changed = (report.fresh_margins > 0) != (
            report.horizon_margins > 0
        )
        assert np.array_equal(report.flipped, sign_changed)

    def test_mechanism_shifts_bracket_the_total(self, report):
        """Each counterfactual explains part of the shift; the residual
        interaction term is small compared to the total."""
        total = np.abs(report.total_shift).mean()
        residual = np.abs(report.interaction_shift()).mean()
        assert residual < 0.2 * total
        # both mechanisms present, BTI dominating under the parked profile
        assert np.abs(report.bti_shift).mean() > 0
        assert np.abs(report.hci_shift).mean() > 0

    def test_histograms_total_population(self, report):
        for t in report.years:
            assert report.histograms[t].sum() == report.n_chips * report.n_bits

    def test_histograms_match_recorded_margins(self, report):
        from repro.metrics.margins import margin_histogram

        for t in report.years:
            assert np.array_equal(
                report.histograms[t],
                margin_histogram(report.margins[t], report.hist_edges),
            )

    def test_oriented_margins_positive_iff_holding(self, report):
        oriented = report.oriented_margins()
        holding = ~report.flipped
        # knife-edge zeros aside, positive oriented margin == bit held
        nonzero = oriented != 0
        assert np.array_equal((oriented > 0)[nonzero], holding[nonzero])

    def test_status_counts_are_consistent(self, report):
        status = report.status()
        assert (status == 2).sum() == report.flipped.sum()
        assert status.shape == (report.n_chips, report.n_bits)

    def test_forecast_scored_against_actual_flips(self, report):
        assert report.outcome.n_bits == report.n_chips * report.n_bits
        assert report.outcome.n_flipped == int(report.flipped.sum())


class TestCaptureApi:
    def test_negative_years_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            capture_forensics(make_case(), years=(-1.0,))

    def test_conventional_design_flips_more_and_forecast_catches(self):
        conv = capture_forensics(
            make_case(conventional_design(n_ros=16, n_stages=3)),
            design_label="ro-puf",
        )
        aro = capture_forensics(make_case(), design_label="aro-puf")
        assert conv.flipped_fraction > aro.flipped_fraction
        assert conv.outcome.recall >= 0.8

"""Parallel forensics: --jobs N must reproduce serial capture exactly.

The acceptance criterion for the forensics layer's parallel path: the
entire DesignForensics record — margins, bits, per-mechanism shifts,
histograms, forecast masks — is bit-identical between the serial engine
and the sharded engine for worker counts that do and do not divide the
chip count.
"""

import numpy as np
import pytest

from repro.core import aro_design
from repro.core.population import make_batch_study
from repro.forensics import capture_forensics
from repro.metrics.margins import histogram_edges

DESIGN = aro_design(n_ros=16, n_stages=3)
SEED = 987
N_CHIPS = 7  # deliberately not divisible by the worker counts


@pytest.fixture(scope="module")
def serial_report():
    study = make_batch_study(DESIGN, N_CHIPS, rng=SEED)
    return capture_forensics(study, design_label="aro-puf")


class TestParallelForensicsIdentity:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_full_record_identical(self, serial_report, jobs):
        with make_batch_study(DESIGN, N_CHIPS, rng=SEED, jobs=jobs) as par:
            report = capture_forensics(par, design_label="aro-puf")
        assert report.years == serial_report.years
        for t in report.years:
            assert np.array_equal(report.margins[t], serial_report.margins[t])
            assert np.array_equal(report.bits[t], serial_report.bits[t])
            assert np.array_equal(
                report.histograms[t], serial_report.histograms[t]
            )
        assert np.array_equal(report.bti_shift, serial_report.bti_shift)
        assert np.array_equal(report.hci_shift, serial_report.hci_shift)
        assert np.array_equal(
            report.forecast.at_risk, serial_report.forecast.at_risk
        )
        assert report.forecast.threshold == serial_report.forecast.threshold
        assert report.outcome == serial_report.outcome


class TestParallelMarginPrimitives:
    def test_mechanism_frequencies_identical(self):
        serial = make_batch_study(DESIGN, N_CHIPS, rng=SEED)
        with make_batch_study(DESIGN, N_CHIPS, rng=SEED, jobs=2) as par:
            for mech in ("bti", "hci"):
                assert np.array_equal(
                    serial.mechanism_frequencies(10.0, mech),
                    par.mechanism_frequencies(10.0, mech),
                )

    def test_mechanism_frequencies_memoised_and_read_only(self):
        with make_batch_study(DESIGN, 4, rng=SEED, jobs=2) as par:
            a = par.mechanism_frequencies(5.0, "bti")
            assert par.mechanism_frequencies(5.0, "bti") is a
            assert not a.flags.writeable

    def test_unknown_mechanism_rejected(self):
        serial = make_batch_study(DESIGN, 3, rng=SEED)
        with pytest.raises(ValueError, match="mechanism"):
            serial.mechanism_frequencies(10.0, "cosmic-rays")

    def test_margin_histogram_counts_merge_exactly(self):
        edges = histogram_edges()
        serial = make_batch_study(DESIGN, N_CHIPS, rng=SEED)
        expected = serial.margin_histogram(edges, None, 10.0)
        with make_batch_study(DESIGN, N_CHIPS, rng=SEED, jobs=3) as par:
            counts = par.margin_histogram(edges, None, 10.0)
        assert np.array_equal(counts, expected)
        assert counts.sum() == N_CHIPS * DESIGN.n_bits

    def test_workers_do_not_inherit_coordinator_collector(self):
        """Capture is coordinator-side only: a collector active in the
        parent must not double-record via the worker processes."""
        from repro.forensics import MarginCollector, collector_session

        with make_batch_study(DESIGN, 4, rng=SEED, jobs=2) as par:
            with collector_session(MarginCollector()) as collector:
                par.responses(t_years=10.0)
            assert len(collector) == 1  # exactly one grid, from the parent

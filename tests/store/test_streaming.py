"""The streaming regime: page release, no memo, identity.

At test scale every window fits the resident budget, so the streaming
machinery (per-block madvise, unmemoised passes whose sinks take the
kernel blocks directly) would never fire.  These tests shrink
``RESIDENT_BUDGET_BYTES`` to zero to force the full out-of-core code
path and pin two properties: the numbers do not change, and nothing
population-sized is kept, in RAM or on disk.
"""

import numpy as np
import pytest

from repro import aro_design
from repro.core.population import make_batch_study
from repro.forensics import capture_forensics
from repro.metrics.margins import histogram_edges
from repro.store import StoreColumns

DESIGN = aro_design(n_ros=16, n_stages=3)
N_CHIPS = 13
SEED = 987


def mmap_study(*args, **kwargs):
    return make_batch_study(*args, store="mmap", **kwargs)


@pytest.fixture
def streaming_budget(monkeypatch):
    monkeypatch.setattr(StoreColumns, "RESIDENT_BUDGET_BYTES", 0)


@pytest.fixture(scope="module")
def serial():
    return make_batch_study(DESIGN, N_CHIPS, rng=SEED)


class TestStreamingRegime:
    def test_budget_splits_the_regimes(self):
        with mmap_study(DESIGN, N_CHIPS, rng=SEED) as study:
            assert not study.source.streaming  # tiny window: in-RAM regime

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_streaming_is_bit_identical(self, streaming_budget, serial, jobs):
        edges = histogram_edges()
        with mmap_study(
            DESIGN, N_CHIPS, rng=SEED, block_size=5, jobs=jobs
        ) as study:
            if jobs == 1:
                assert study.source.streaming
            for t in (0.0, 2.0, 10.0):
                assert np.array_equal(
                    serial.responses(t_years=t), study.responses(t_years=t)
                )
                assert np.array_equal(
                    serial.frequencies(t), study.frequencies(t)
                )
                assert np.array_equal(
                    serial.margin_histogram(edges, None, t),
                    study.margin_histogram(edges, None, t),
                )
            for mech in ("bti", "hci"):
                assert np.array_equal(
                    serial.mechanism_frequencies(10.0, mech),
                    study.mechanism_frequencies(10.0, mech),
                )
            got = capture_forensics(study, years=(2.0,))
        want = capture_forensics(serial, years=(2.0,))
        assert got.years == want.years
        for t in want.years:
            assert np.array_equal(got.bits[t], want.bits[t])
            assert np.array_equal(got.margins[t], want.margins[t])
            assert np.array_equal(got.histograms[t], want.histograms[t])
        assert np.array_equal(got.bti_shift, want.bti_shift)
        assert np.array_equal(got.hci_shift, want.hci_shift)
        assert got.outcome == want.outcome

    def test_streaming_memoises_nothing(self, streaming_budget):
        with mmap_study(DESIGN, N_CHIPS, rng=SEED, block_size=5) as study:
            study.responses(t_years=10.0)
            study.margin_histogram(histogram_edges(), None, 10.0)
            freqs = study.frequencies(10.0)
            assert not study._freq_memo
            # a fresh corner the caller owns
            assert freqs.flags.writeable and not isinstance(freqs, np.memmap)
            assert study.frequencies(10.0) is not freqs

    def test_capture_memoises_nothing(self, streaming_budget, serial):
        with mmap_study(DESIGN, N_CHIPS, rng=SEED, block_size=5) as study:
            got = capture_forensics(study, years=(2.0,))
            assert not study._freq_memo
        want = capture_forensics(serial, years=(2.0,))
        for t in want.years:
            assert np.array_equal(got.margins[t], want.margins[t])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_named_store_dir_gets_no_spill_dir(
        self, streaming_budget, tmp_path, jobs
    ):
        root = tmp_path / "pop"
        with mmap_study(
            DESIGN, N_CHIPS, rng=SEED, block_size=5, store_dir=root, jobs=jobs
        ) as study:
            study.responses(t_years=10.0)
            study.frequencies(5.0)
            capture_forensics(study, years=(2.0,))
        assert (root / DESIGN.name / "meta.json").exists()
        assert not list(root.rglob("spill"))

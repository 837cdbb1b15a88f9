"""The streaming regime: spill-to-disk corners, page release, identity.

At test scale every window fits the resident budget, so the streaming
machinery (per-block madvise, corner spill through the result cache)
would never fire.  These tests shrink ``RESIDENT_BUDGET_BYTES`` to zero
to force the full out-of-core code path and pin two properties: the
numbers do not change, and the corners really do go through the spill
directory (with eviction deleting the bytes).
"""

import numpy as np
import pytest

from repro import aro_design
from repro.core.population import BatchStudy, make_batch_study
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

    def test_streaming_is_bit_identical(self, streaming_budget, serial):
        with mmap_study(DESIGN, N_CHIPS, rng=SEED, block_size=5) as study:
            assert study.source.streaming
            for t in (0.0, 2.0, 10.0):
                assert np.array_equal(
                    serial.responses(t_years=t), study.responses(t_years=t)
                )

    def test_corners_spill_to_disk(self, streaming_budget, tmp_path):
        with mmap_study(
            DESIGN, N_CHIPS, rng=SEED, block_size=5, store_dir=tmp_path / "pop"
        ) as study:
            spill_dir = tmp_path / "pop" / DESIGN.name / "spill"
            study.responses(t_years=10.0)
            spilled = list(spill_dir.glob("*.npy"))
            assert spilled, "streaming corners must live in the spill dir"
            study.drop_cached_corners()
            assert not list(spill_dir.glob("*.npy"))

    def test_memo_depth_shrinks_when_spilling(self, streaming_budget):
        with mmap_study(DESIGN, N_CHIPS, rng=SEED) as study:
            assert study.memo_size == BatchStudy.SPILL_MEMO_SIZE

    def test_memo_depth_full_when_resident(self):
        with mmap_study(DESIGN, N_CHIPS, rng=SEED) as study:
            assert study.memo_size == BatchStudy.MEMO_SIZE

    def test_eviction_deletes_spilled_bytes(self, streaming_budget, tmp_path):
        with mmap_study(
            DESIGN, N_CHIPS, rng=SEED, store_dir=tmp_path / "pop"
        ) as study:
            spill_dir = tmp_path / "pop" / DESIGN.name / "spill"
            # one corner more than the spill memo keeps
            for t in np.linspace(0.0, 10.0, BatchStudy.SPILL_MEMO_SIZE + 1):
                study.frequencies(t_years=float(t))
            assert (
                len(list(spill_dir.glob("*.npy")))
                <= BatchStudy.SPILL_MEMO_SIZE
            )

    def test_spilled_corner_reused_across_studies(
        self, streaming_budget, tmp_path
    ):
        from repro import telemetry

        root = tmp_path / "pop"
        with mmap_study(DESIGN, N_CHIPS, rng=SEED, store_dir=root) as one:
            ref = np.array(one.frequencies(t_years=10.0))
        with mmap_study(DESIGN, N_CHIPS, rng=SEED, store_dir=root) as two:
            with telemetry.session() as counters:
                again = two.frequencies(t_years=10.0)
            assert np.array_equal(ref, again)
            # served from the persisted spill, not recomputed
            assert counters.counters.get("batch.corner_memo_hits", 0) >= 1
            assert counters.counters.get("freq.kernel_blocks", 0) == 0

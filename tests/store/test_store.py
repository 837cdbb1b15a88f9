"""PopulationStore: chunked fabrication, lazy columns, content keys.

The store's contract is that a chip's bytes depend only on its spawn
key — never on which block materialised it, the block size, or which
columns were asked for first.  These tests pin that contract at small
scale; the RSS/throughput behaviour lives in
``benchmarks/bench_population.py``.
"""

import numpy as np
import pytest

from repro import aro_design, conventional_design
from repro.store import (
    AGING_COLUMNS,
    COLUMNS,
    FAB_COLUMNS,
    PopulationStore,
    flush_rows,
    release_rows,
    remove_store,
)

DESIGN = aro_design(n_ros=16, n_stages=3)
N_CHIPS = 13  # deliberately not divisible by any tested block size
SEED = 987


def _full_columns(root, block_size, columns=COLUMNS):
    """Create a store, materialise every requested column, return copies."""
    store = PopulationStore.create(
        root, DESIGN, N_CHIPS, rng=SEED, block_size=block_size
    )
    try:
        store.ensure_rows(0, N_CHIPS, columns)
        return {name: np.array(store.column(name)) for name in columns}
    finally:
        store.close()


class TestChunkDeterminism:
    @pytest.mark.parametrize("block_size", [1, 7, 64, N_CHIPS])
    def test_block_size_invisible_in_bytes(self, tmp_path, block_size):
        """Every column is byte-identical regardless of chunking."""
        ref = _full_columns(tmp_path / "ref", N_CHIPS)
        got = _full_columns(tmp_path / "case", block_size)
        for name in COLUMNS:
            assert np.array_equal(ref[name], got[name]), name

    def test_column_order_invisible_in_bytes(self, tmp_path):
        """Fabricating aging before fab columns replays the same draws."""
        ref = _full_columns(tmp_path / "ref", 5)
        store = PopulationStore.create(
            tmp_path / "reorder", DESIGN, N_CHIPS, rng=SEED, block_size=5
        )
        try:
            store.ensure_rows(0, N_CHIPS, AGING_COLUMNS)
            store.ensure_rows(0, N_CHIPS, FAB_COLUMNS)
            for name in COLUMNS:
                assert np.array_equal(ref[name], np.array(store.column(name)))
        finally:
            store.close()

    def test_partial_then_full_materialisation(self, tmp_path):
        """Rows fabricated in a first narrow pass keep their bytes."""
        ref = _full_columns(tmp_path / "ref", 4)
        store = PopulationStore.create(
            tmp_path / "partial", DESIGN, N_CHIPS, rng=SEED, block_size=4
        )
        try:
            store.ensure_rows(5, 9, ["vth"])
            early = np.array(store.column("vth")[4:12])
            store.ensure_rows(0, N_CHIPS, COLUMNS)
            assert np.array_equal(early, np.array(store.column("vth")[4:12]))
            for name in COLUMNS:
                assert np.array_equal(ref[name], np.array(store.column(name)))
        finally:
            store.close()

    def test_dir_columns_fold_the_coeff_columns(self, tmp_path):
        """bti_dir/hci_dir are the raw coefficients with the static
        stress powers baked in — same magnitude ordering, never NaN."""
        cols = _full_columns(tmp_path / "s", 5)
        for raw, folded in (("bti_coeff", "bti_dir"), ("hci_coeff", "hci_dir")):
            assert np.isfinite(cols[folded]).all()
            # the fold is a positive per-(stage, edge) factor, so zero
            # coefficients stay zero and signs are preserved
            assert np.array_equal(cols[raw] == 0.0, cols[folded] == 0.0)
            assert np.array_equal(np.sign(cols[raw]), np.sign(cols[folded]))


class TestLazyColumns:
    def test_unread_column_stays_unmaterialised(self, tmp_path):
        store = PopulationStore.create(
            tmp_path / "lazy", DESIGN, N_CHIPS, rng=SEED, block_size=4
        )
        try:
            assert store.materialised_blocks("vth") == 0
            store.ensure_rows(0, 6, ["vth"])
            assert store.materialised_blocks("vth") == 2
            assert store.materialised_blocks("tc_scale") == 0
            assert store.materialised_blocks("bti_dir") == 0
        finally:
            store.close()

    def test_ensure_rows_is_idempotent(self, tmp_path):
        store = PopulationStore.create(
            tmp_path / "idem", DESIGN, N_CHIPS, rng=SEED, block_size=4
        )
        try:
            store.ensure_rows(0, N_CHIPS, ["vth"])
            before = np.array(store.column("vth"))
            store.ensure_rows(0, N_CHIPS, ["vth"])
            assert np.array_equal(before, np.array(store.column("vth")))
            assert store.materialised_blocks("vth") == 4
        finally:
            store.close()


class TestContentKeys:
    def test_create_adopts_matching_store(self, tmp_path):
        root = tmp_path / "pop"
        first = PopulationStore.create(root, DESIGN, N_CHIPS, rng=SEED)
        first.ensure_rows(0, N_CHIPS, ["vth"])
        vth = np.array(first.column("vth"))
        first.close()
        again = PopulationStore.create(root, DESIGN, N_CHIPS, rng=SEED)
        try:
            # adopted, not refabricated: the flags survived
            assert again.materialised_blocks("vth") > 0
            assert np.array_equal(vth, np.array(again.column("vth")))
        finally:
            again.close()

    def test_create_refuses_mismatching_store(self, tmp_path):
        root = tmp_path / "pop"
        PopulationStore.create(root, DESIGN, N_CHIPS, rng=SEED).close()
        with pytest.raises(ValueError, match="content key mismatch"):
            PopulationStore.create(root, DESIGN, N_CHIPS, rng=SEED + 1)

    def test_attach_round_trips(self, tmp_path):
        root = tmp_path / "pop"
        created = PopulationStore.create(root, DESIGN, N_CHIPS, rng=SEED)
        key = created.content_key
        created.close()
        attached = PopulationStore.attach(root, DESIGN)
        try:
            assert attached.content_key == key
            assert attached.n_chips == N_CHIPS
        finally:
            attached.close()

    def test_attach_wrong_design_fails(self, tmp_path):
        root = tmp_path / "pop"
        PopulationStore.create(root, DESIGN, N_CHIPS, rng=SEED).close()
        other = conventional_design(n_ros=16, n_stages=3)
        with pytest.raises(ValueError, match="content key mismatch"):
            PopulationStore.attach(root, other)

    def test_attach_missing_store_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PopulationStore.attach(tmp_path / "nowhere", DESIGN)

    def test_remove_store(self, tmp_path):
        root = tmp_path / "pop"
        PopulationStore.create(root, DESIGN, N_CHIPS, rng=SEED).close()
        remove_store(root)
        assert not root.exists()


class TestPageOps:
    def test_release_never_loses_committed_bytes(self, tmp_path):
        """madvise(DONTNEED) on a MAP_SHARED file mapping is an RSS hint,
        not a discard: flushed rows read back bit-identically."""
        path = tmp_path / "seg.npy"
        mm = np.lib.format.open_memmap(
            path, mode="w+", dtype=np.float64, shape=(64, 1024)
        )
        rng = np.random.default_rng(SEED)
        data = rng.normal(size=(64, 1024))
        mm[:] = data
        flush_rows(mm, 0, 64)
        release_rows(mm, 0, 64)
        assert np.array_equal(np.array(mm), data)
        del mm
        assert np.array_equal(np.load(path), data)

    def test_release_without_flush_keeps_bytes(self, tmp_path):
        """A temporary store never msyncs: released dirty rows stay in
        the page cache, for this mapping and for a second one (how shard
        workers share a segment)."""
        path = tmp_path / "seg.npy"
        mm = np.lib.format.open_memmap(
            path, mode="w+", dtype=np.float64, shape=(64, 1024)
        )
        data = np.random.default_rng(SEED).normal(size=(64, 1024))
        mm[:] = data
        release_rows(mm, 0, 64)
        other = np.load(path, mmap_mode="r")
        assert np.array_equal(np.array(other), data)
        assert np.array_equal(np.array(mm), data)

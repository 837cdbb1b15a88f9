"""A named store directory is the population's persistence.

A population laid down under ``store_dir`` is reattached by content key:
the bytes read back are the bytes fabricated, a study over the reopened
directory answers exactly like a fresh in-RAM study of the same seed,
and a directory that is not that population is refused.
"""

import json

import numpy as np
import pytest

from repro import MissionProfile, aro_design, conventional_design
from repro.core.population import make_batch_study
from repro.store import COLUMNS, PopulationStore

DESIGN = aro_design(n_ros=16, n_stages=3)
N_CHIPS = 11
SEED = 4242
BLOCK = 4


def _laid_down(root):
    """Create a fully materialised store at ``root``; return column copies."""
    store = PopulationStore.create(
        root, DESIGN, N_CHIPS, rng=SEED, block_size=BLOCK
    )
    try:
        store.ensure_rows(0, N_CHIPS, COLUMNS)
        return {name: np.array(store.column(name)) for name in COLUMNS}
    finally:
        store.close()


class TestRoundTrip:
    @pytest.mark.parametrize("name", COLUMNS)
    def test_reattached_column_bytes(self, tmp_path, name):
        root = tmp_path / "pop"
        ref = _laid_down(root)
        store = PopulationStore.attach(root, DESIGN)
        try:
            # adopted, not refabricated: every block is still flagged
            blocks = -(-N_CHIPS // BLOCK)
            assert store.materialised_blocks(name) == blocks
            assert np.array_equal(ref[name], np.array(store.column(name)))
        finally:
            store.close()

    @pytest.mark.parametrize(
        "design",
        [DESIGN, conventional_design(n_ros=16, n_stages=3)],
        ids=["aro-puf", "ro-puf"],
    )
    def test_reopened_store_continues_experiments(self, tmp_path, design):
        """A study over a reopened directory matches a fresh RAM study."""
        root = tmp_path / "pop"
        years = [2.0, 10.0]
        with make_batch_study(
            design, N_CHIPS, rng=SEED, store="mmap", store_dir=root
        ) as first:
            first.responses(t_years=10.0)
        ram = make_batch_study(design, N_CHIPS, rng=SEED)
        with make_batch_study(
            design, N_CHIPS, rng=SEED, store="mmap", store_dir=root
        ) as again:
            assert np.array_equal(ram.frequencies(5.0), again.frequencies(5.0))
            want_bits, want_counts = ram.flip_counts(years)
            got_bits, got_counts = again.flip_counts(years)
        assert np.array_equal(want_bits, got_bits)
        assert np.array_equal(want_counts, got_counts)

    def test_reopened_study_fabricates_nothing(self, tmp_path):
        root = tmp_path / "pop"
        with make_batch_study(
            DESIGN, N_CHIPS, rng=SEED, store="mmap", store_dir=root,
            block_size=BLOCK,
        ) as first:
            first.responses(t_years=10.0)
            store = first.source.store
            flagged = {name: store.materialised_blocks(name) for name in COLUMNS}
        assert flagged["vth"] == -(-N_CHIPS // BLOCK)
        with make_batch_study(
            DESIGN, N_CHIPS, rng=SEED, store="mmap", store_dir=root,
            block_size=BLOCK,
        ) as again:
            store = again.source.store
            before = {name: store.materialised_blocks(name) for name in COLUMNS}
            again.responses(t_years=10.0)
            after = {name: store.materialised_blocks(name) for name in COLUMNS}
        assert before == flagged
        assert after == flagged


class TestErrors:
    def test_format_check(self, tmp_path):
        root = tmp_path / "pop"
        _laid_down(root)
        meta_path = root / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="store format 99"):
            PopulationStore.attach(root, DESIGN)

    def test_missing_key_file(self, tmp_path):
        root = tmp_path / "pop"
        _laid_down(root)
        (root / "fab_keys.npy").unlink()
        with pytest.raises(FileNotFoundError):
            PopulationStore.attach(root, DESIGN)

    def test_tampered_keys_refused(self, tmp_path):
        root = tmp_path / "pop"
        _laid_down(root)
        keys = np.load(root / "aging_keys.npy")
        np.save(root / "aging_keys.npy", keys[::-1].copy())
        with pytest.raises(ValueError, match="content key mismatch"):
            PopulationStore.attach(root, DESIGN)

    def test_other_mission_refused(self, tmp_path):
        root = tmp_path / "pop"
        _laid_down(root)
        other = MissionProfile(temperature_k=358.15)
        with pytest.raises(ValueError, match="content key mismatch"):
            PopulationStore.attach(root, DESIGN, mission=other)

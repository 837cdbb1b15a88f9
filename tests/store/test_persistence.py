"""A named store directory is the population's persistence.

A population laid down under ``store_dir`` is reattached by content key:
the bytes read back are the bytes fabricated, a study over the reopened
directory answers exactly like a fresh in-RAM study of the same seed,
and a directory that is not that population is refused, as is one whose
files were truncated.  Only such a named store is flushed to its files;
the temporary store a run owns and deletes never is.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import MissionProfile, aro_design, conventional_design
from repro.analysis.experiments import ExperimentConfig, aging_bitflips
from repro.core.population import make_batch_study
from repro.store import COLUMNS, PopulationStore
from repro.store import store as store_mod

DESIGN = aro_design(n_ros=16, n_stages=3)
#: the designs an E2 run at 16 ROs lays down, by store subdirectory
DESIGN_OF = {
    design.name: design
    for design in (aro_design(n_ros=16), conventional_design(n_ros=16))
}
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"format": 1, "n_chips": ', "is not valid JSON"),
            ("[" * 20000, "is not valid JSON"),
            ("\xff", "is not valid JSON"),
            ("[]", "holds a list, not an object"),
            ("null", "holds a NoneType, not an object"),
            ('{"n_chips": 11, "block_size": 4}', "store format None"),
            ('{"format": 1, "block_size": 4}', "n_chips must be a positive"),
            ('{"format": 1, "n_chips": 11, "block_size": 0}', "block_size must"),
            ('{"format": 1, "n_chips": 11, "block_size": "4"}', "block_size must"),
            ('{"format": 1, "n_chips": 11.0, "block_size": 4}', "n_chips must"),
            ('{"format": 1, "n_chips": true, "block_size": 4}', "n_chips must"),
        ],
        ids=[
            "truncated", "deep", "undecodable", "list", "null", "no-format",
            "no-n-chips", "zero-block", "string-block", "float-chips",
            "bool-chips",
        ],
    )
    @pytest.mark.parametrize("opener", ["attach", "create"])
    def test_corrupt_meta_refused_naming_the_file(
        self, tmp_path, text, message, opener
    ):
        root = tmp_path / "pop"
        _laid_down(root)
        (root / "meta.json").write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError) as info:
            if opener == "attach":
                PopulationStore.attach(root, DESIGN)
            else:
                PopulationStore.create(
                    root, DESIGN, N_CHIPS, rng=SEED, block_size=BLOCK
                )
        assert str(root / "meta.json") in str(info.value)
        assert message in str(info.value)

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

    @pytest.mark.parametrize("name", ["vth.npy", "vth.flags.npy", "hci_dir.npy"])
    def test_truncated_file_refused(self, tmp_path, name):
        """A short segment or bitmap is refused, not grown back with zeros."""
        root = tmp_path / "pop"
        _laid_down(root)
        path = root / name
        full = path.stat().st_size
        os.truncate(path, full - 1)
        column = name.split(".")[0]
        with PopulationStore.attach(root, DESIGN) as store:
            mapper = store.materialised_blocks if ".flags" in name else store.column
            with pytest.raises(ValueError) as info:
                mapper(column)
        message = str(info.value)
        assert name in message
        assert f"is {full - 1} bytes" in message and f"describes {full} bytes" in message
        assert path.stat().st_size == full - 1

    def test_truncated_header_refused(self, tmp_path):
        root = tmp_path / "pop"
        _laid_down(root)
        os.truncate(root / "vth.flags.npy", 20)
        with PopulationStore.attach(root, DESIGN) as store:
            with pytest.raises(ValueError, match="vth.flags.npy is 20 bytes"):
                store.materialised_blocks("vth")

    def test_grown_file_refused(self, tmp_path):
        root = tmp_path / "pop"
        _laid_down(root)
        with open(root / "tc_scale.npy", "ab") as fh:
            fh.write(b"\0" * 8)
        with PopulationStore.attach(root, DESIGN) as store:
            with pytest.raises(ValueError, match="tc_scale.npy"):
                store.column("tc_scale")

    def test_cli_exits_nonzero_on_truncated_segment(self, tmp_path):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        argv = [
            sys.executable, "-m", "repro.cli", "run", "e2", "--chips", "4",
            "--ros", "16", "--store", "mmap", "--store-dir", str(tmp_path),
        ]
        env = dict(os.environ, PYTHONPATH=src)
        first = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert first.returncode == 0, first.stderr
        vth = tmp_path / "ro-puf" / "vth.npy"
        os.truncate(vth, vth.stat().st_size // 2)
        again = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert again.returncode != 0
        assert "vth.npy" in again.stderr

    def test_cli_exits_nonzero_naming_a_corrupt_meta(self, tmp_path):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        argv = [
            sys.executable, "-m", "repro.cli", "run", "e2", "--chips", "4",
            "--ros", "16", "--store", "mmap", "--store-dir", str(tmp_path),
        ]
        env = dict(os.environ, PYTHONPATH=src)
        first = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert first.returncode == 0, first.stderr
        meta = tmp_path / "ro-puf" / "meta.json"
        fields = json.loads(meta.read_text())
        fields["block_size"] = 0
        meta.write_text(json.dumps(fields))
        again = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert again.returncode != 0
        assert f"{meta}: block_size must be a positive integer" in again.stderr

    @pytest.mark.parametrize("damage", ["meta", "segment"])
    def test_cli_reports_a_damaged_store_in_one_line_and_exits_2(
        self, tmp_path, capsys, damage
    ):
        """``repro run`` over a damaged ``--store-dir`` prints one
        ``error: ...`` line naming the file and exits 2, as ``loadgen``
        does for a bad ``--slo-spec``; no traceback escapes."""
        from repro.cli import main

        argv = [
            "run", "e2", "--chips", "4", "--ros", "16", "--store", "mmap",
            "--store-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        if damage == "meta":
            path = tmp_path / "ro-puf" / "meta.json"
            fields = json.loads(path.read_text())
            fields["block_size"] = 0
            path.write_text(json.dumps(fields))
            message = f"error: {path}: block_size must be a positive integer"
        else:
            path = tmp_path / "ro-puf" / "vth.npy"
            with open(path, "r+b") as fh:
                fh.truncate(1000)
            message = f"error: {path} is 1000 bytes"
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message), err


class TestFlushes:
    """msync only where a later run can re-attach the store."""

    @pytest.fixture
    def flushes(self, monkeypatch):
        calls = {"rows": 0, "flags": 0}
        flush_rows, memmap_flush = store_mod.flush_rows, np.memmap.flush

        def counted_rows(mm, lo, hi):
            calls["rows"] += 1
            flush_rows(mm, lo, hi)

        def counted_flush(mm):
            if mm.dtype == np.uint8:
                calls["flags"] += 1
            memmap_flush(mm)

        monkeypatch.setattr(store_mod, "flush_rows", counted_rows)
        monkeypatch.setattr(np.memmap, "flush", counted_flush)
        return calls

    def _e2(self, store_dir=None):
        config = ExperimentConfig(
            n_chips=7, n_ros=16, store="mmap", block_size=3, store_dir=store_dir
        )
        return aging_bitflips(config)

    def test_owned_store_never_flushes(self, flushes):
        self._e2()
        assert flushes == {"rows": 0, "flags": 0}

    def test_named_store_flushes_every_published_block(self, tmp_path, flushes):
        self._e2(str(tmp_path))
        designs = [p for p in tmp_path.iterdir() if (p / "meta.json").exists()]
        assert len(designs) == 2
        published = 0
        for root in designs:
            with PopulationStore.attach(root, DESIGN_OF[root.name]) as store:
                published += sum(store.materialised_blocks(c) for c in COLUMNS)
        # one block per published (column, block), then its bitmap; each
        # new store also flushes its zeroed bitmaps once at creation
        assert published == 2 * 3 * 3  # vth, bti_dir, hci_dir; 3 blocks
        assert flushes["rows"] == published
        assert flushes["flags"] == published + 2 * len(COLUMNS)
        # a re-run adopts both stores and publishes nothing, so it
        # flushes nothing
        flushes.update(rows=0, flags=0)
        self._e2(str(tmp_path))
        assert flushes == {"rows": 0, "flags": 0}


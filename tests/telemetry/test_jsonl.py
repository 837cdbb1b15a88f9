"""JSONL append/read: one torn-tail policy under all five append-only files.

A process killed mid-append leaves a torn last line.  Whatever the
file — run ledger, perf ledger, progress events, service audit trail or
helper-data store — reopening it and appending must not fuse the next
record onto the torn line: every record appended after the reopen reads
back, and the torn line costs at most one skipped line.
"""

import dataclasses
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.service import EnrollmentRecord, HelperStore, default_extractor
from repro.service.audit import AuditTrail
from repro.service.store import key_digest
from repro.telemetry import jsonl
from repro.telemetry.events import ProgressEmitter
from repro.telemetry.ledger import Ledger, LedgerEntry
from repro.telemetry.manifest import RunManifest
from repro.telemetry.monitor import parse_events

# collected once: both stamp the git SHA through a subprocess
MANIFEST = RunManifest.collect(seed=1, config={"n_chips": 4})
PROVENANCE = LedgerEntry.perf("b", {}).manifest


def _enrollment():
    extractor = default_extractor()
    rng = np.random.default_rng(3)
    reference = rng.integers(0, 2, extractor.response_bits, dtype=np.uint8)
    helper, key = extractor.enroll(reference, rng=rng)
    return EnrollmentRecord(0, reference, helper, key_digest(key))


ENROLLMENT = _enrollment()


def _write_run(path, ids, value):
    ledger = Ledger(path)
    for i in ids:
        ledger.record(f"e{i}", {"x": value, "i": i}, MANIFEST)


def _read_run(path, kind="run"):
    ledger = Ledger(path)
    names = [e.name for e in ledger.entries(kind=kind)]
    return [int(n[1:]) for n in names], ledger.n_skipped


def _write_perf(path, ids, value):
    ledger = Ledger(path)
    for i in ids:
        ledger.append(LedgerEntry("perf", f"b{i}", {"wall_s": value}, PROVENANCE))


def _write_events(path, ids, value):
    emitter = ProgressEmitter(path, min_interval_s=0.0)
    for i in ids:
        emitter.emit(f"s{i}", i, 100, value=value)
    emitter.close()


def _read_events(path):
    with open(path) as fh:
        state = parse_events(fh)
    return [int(name[1:]) for name in state.stages], state.n_skipped


def _write_audit(path, ids, value):
    with AuditTrail(path) as trail:
        for i in ids:
            trail.append(
                endpoint="auth", outcome="ok", duration_ms=abs(value), chip_id=i
            )


def _read_audit(path):
    records, skipped = jsonl.read(path)
    return [r["chip_id"] for r in records], skipped


def _write_store(path, ids, value):
    store = HelperStore(path)
    for i in ids:
        store.put(dataclasses.replace(ENROLLMENT, chip_id=i))


def _read_store(path):
    store = HelperStore(path)
    return store.chip_ids(), store.n_skipped


#: file kind -> (append records with these ids, read back (ids, n_skipped))
KINDS = {
    "run-ledger": (_write_run, _read_run),
    "perf-ledger": (_write_perf, lambda path: _read_run(path, "perf")),
    "events": (_write_events, _read_events),
    "audit": (_write_audit, _read_audit),
    "helper-store": (_write_store, _read_store),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=3, deadline=None)
@given(
    n_before=st.integers(1, 3),
    n_after=st.integers(1, 2),
    value=st.floats(-1e6, 1e6, allow_nan=False),
)
def test_torn_tail_costs_at_most_one_line(kind, n_before, n_after, value):
    """Cut the last record at every byte offset, reopen, append."""
    write, read = KINDS[kind]
    before = list(range(n_before))
    after = list(range(100, 100 + n_after))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "file.jsonl"
        write(path, before, value)
        data = path.read_bytes()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_start + 1, len(data)):
            path.write_bytes(data[:cut])
            write(path, after, value)
            ids, skipped = read(path)
            assert set(after) <= set(ids), (kind, cut)
            assert set(before[:-1]) <= set(ids), (kind, cut)
            assert skipped <= 1, (kind, cut)


class TestOpenAppend:
    def test_ends_a_torn_tail_once(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n{"b": ')
        with jsonl.open_append(path) as fh:
            fh.write('{"c": 3}\n')
            fh.write('{"d": 4}\n')
        assert path.read_text() == '{"a": 1}\n{"b": \n{"c": 3}\n{"d": 4}\n'
        assert jsonl.read(path) == ([{"a": 1}, {"c": 3}, {"d": 4}], 1)

    def test_clean_and_empty_files_untouched(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        clean.write_text('{"a": 1}\n')
        jsonl.open_append(clean).close()
        assert clean.read_text() == '{"a": 1}\n'
        fresh = tmp_path / "deep" / "fresh.jsonl"
        jsonl.append(fresh, {"b": 2, "a": 1})
        assert fresh.read_text() == '{"a": 1, "b": 2}\n'


class TestRead:
    def test_absent_file_is_empty(self, tmp_path):
        assert jsonl.read(tmp_path / "none.jsonl") == ([], 0)

    def test_skips_garbage_and_non_objects_not_blanks(self):
        lines = ['{"a": 1}', "", "   ", "not json", "[1, 2]", "7", '{"b": 2}']
        assert jsonl.parse(lines) == ([{"a": 1}, {"b": 2}], 3)

    def test_undecodable_bytes_are_one_skipped_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"a": 1}\n\xff\xfe{"b"\n{"c": 3}\n')
        assert jsonl.read(path) == ([{"a": 1}, {"c": 3}], 1)

    def test_load_rejections_are_skipped_lines(self):
        def load(record):
            return record["a"]

        lines = ['{"a": 1}', '{"b": 2}', '{"a": 3}']
        assert jsonl.parse(lines, load) == ([1, 3], 1)

    def test_strict_names_origin_line_and_reason(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n\n[1]\n')
        with pytest.raises(ValueError, match=r"f\.jsonl:3: bad line: not a JSON"):
            jsonl.read(path, strict=True)


#: every command that reads a ledger through :func:`jsonl.read`
LEDGER_READERS = {
    "history": ["history", "--ledger"],
    "perf-history": ["perf", "history", "--perf-ledger"],
    "perf-gate": ["perf", "gate", "--perf-ledger"],
    "check-anchors": ["check-anchors", "--from-ledger"],
}


@pytest.mark.parametrize("reader", sorted(LEDGER_READERS))
def test_integer_too_large_for_a_float_is_one_skipped_line(reader, tmp_path):
    path = tmp_path / "ledger.jsonl"
    _write_run(path, [1], 1.0)
    _write_perf(path, [2], 1.0)
    record = LedgerEntry("perf", "b3", {}, PROVENANCE).to_dict()
    record["scalars"] = {"x": 0}
    with open(path, "a") as fh:
        fh.write(json.dumps(record).replace('"x": 0', '"x": ' + "9" * 400) + "\n")
    ledger = Ledger(path)
    assert [e.name for e in ledger.entries()] == ["e1", "b2"]
    assert ledger.n_skipped == 1
    assert main(LEDGER_READERS[reader] + [str(path)]) in (0, 1, 2)

"""The JSONL input boundary: every reader keeps exactly the valid lines.

A run ledger, a service audit trail, a progress-events file and a
helper-data store are append-only JSONL files that outlive the process
that wrote them, so their readers must take any bytes a crash, an
editor or a stray ``>>`` left behind.  The property writes valid records
through each file's own writer, interleaved with arbitrary lines of five
other kinds:

* malformed text (anything ``json.loads`` rejects, a torn record among it);
* non-object JSON values;
* values nested too deeply to decode;
* objects the file's loader rejects (the audit trail has no loader: it
  keeps every object);
* blank lines, which count as neither kept nor skipped.

The reader must keep the valid records, in file order, and count every
line of the first four kinds in ``n_skipped``, no more and no fewer.
"""

import dataclasses
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import EnrollmentRecord, HelperStore, default_extractor
from repro.service.audit import AuditTrail
from repro.service.store import key_digest
from repro.telemetry import jsonl
from repro.telemetry.events import ProgressEmitter
from repro.telemetry.ledger import Ledger
from repro.telemetry.manifest import RunManifest
from repro.telemetry.monitor import parse_events

# collected once: it stamps the git SHA through a subprocess
MANIFEST = RunManifest.collect(seed=1, config={"n_chips": 4})


def _enrollment():
    extractor = default_extractor()
    rng = np.random.default_rng(3)
    reference = rng.integers(0, 2, extractor.response_bits, dtype=np.uint8)
    helper, key = extractor.enroll(reference, rng=rng)
    return EnrollmentRecord(0, reference, helper, key_digest(key))


ENROLLMENT = _enrollment()


def _write_run(path, i):
    Ledger(path).record(f"e{i}", {"x": float(i)}, MANIFEST)


def _read_run(path):
    ledger = Ledger(path)
    return [int(e.name[1:]) for e in ledger.entries()], ledger.n_skipped


def _write_audit(path, i):
    with AuditTrail(path) as trail:
        trail.append(endpoint="auth", outcome="ok", duration_ms=1.0, chip_id=i)


def _read_audit(path):
    records, skipped = jsonl.read(path)
    return [r.get("chip_id") for r in records], skipped


def _write_events(path, i):
    emitter = ProgressEmitter(path, min_interval_s=0.0)
    emitter.emit(f"s{i}", i, 100, force=True)
    emitter.close()


def _read_events(path):
    with open(path, encoding="utf-8") as fh:
        state = parse_events(fh)
    return [int(name[1:]) for name in state.stages], state.n_skipped


def _write_store(path, i):
    HelperStore(path).put(dataclasses.replace(ENROLLMENT, chip_id=i))


def _read_store(path):
    store = HelperStore(path)
    return store.chip_ids(), store.n_skipped


_STORE_LINE = dict(ENROLLMENT.to_dict(), reference="zz")

#: file kind -> (append record ``i``, read back ``(ids, n_skipped)``,
#: objects its loader rejects, or ``None`` when it keeps every object)
KINDS = {
    "run-ledger": (
        _write_run,
        _read_run,
        [
            {"format": 3, "kind": "run", "name": "e"},
            {"format": 2, "kind": "run", "name": "e", "scalars": {}, "manifest": {}},
        ],
    ),
    "audit": (_write_audit, _read_audit, None),
    "events": (
        _write_events,
        _read_events,
        [
            {"event": "progress"},
            {"event": "progress", "stage": "q", "done": 10**400},
        ],
    ),
    "helper-store": (_write_store, _read_store, [_STORE_LINE]),
}

#: no line terminator a text-mode reader splits on
line_text = st.text(st.characters(blacklist_characters="\r\n"), max_size=40)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=8)
)
#: JSON values that are not objects at the top level
non_objects = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6
)
#: objects with no field any loader reads
foreign_objects = st.dictionaries(
    st.text(max_size=6).map(lambda k: "x_" + k), json_scalars, max_size=3
)


def _malformed(text):
    try:
        json.loads(text.strip())
    except ValueError:
        return True
    return False


lines = st.lists(
    st.one_of(
        st.tuples(st.just("valid"), st.none()),
        st.tuples(
            st.just("malformed"),
            line_text.filter(lambda t: t.strip() and _malformed(t)),
        ),
        st.tuples(st.just("torn"), st.integers(1, 10_000)),
        st.tuples(st.just("non-object"), non_objects.map(json.dumps)),
        st.tuples(
            st.just("too-deep"),
            st.sampled_from(["[", '{"a":']).flatmap(
                lambda opener: st.sampled_from([10_000, 100_000]).map(
                    lambda depth: opener * depth
                    + "0"
                    + ("]" if opener == "[" else "}") * depth
                )
            ),
        ),
        st.tuples(st.just("foreign"), foreign_objects.map(json.dumps)),
        st.tuples(st.just("rejected"), st.integers(0, 1)),
        st.tuples(st.just("blank"), st.sampled_from(["", " ", "\t ", "\x0c"])),
    ),
    max_size=12,
)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(items=lines)
def test_readers_keep_exactly_the_valid_lines(kind, items):
    write, read, rejected = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "file.jsonl"
        path.touch()
        scratch = pathlib.Path(tmp) / "one.jsonl"
        write(scratch, 0)
        valid_line = scratch.read_text(encoding="utf-8").rstrip("\n")

        kept, skipped = [], 0
        for i, (what, payload) in enumerate(items):
            if what == "valid":
                write(path, i)
                kept.append(i)
                continue
            if what == "torn":
                text = valid_line[: 1 + payload % (len(valid_line) - 1)]
            elif what == "rejected":
                if rejected is None:
                    continue
                text = json.dumps(rejected[payload % len(rejected)])
            else:
                text = payload
            if what == "foreign" and rejected is None:
                kept.append(None)  # the audit trail keeps any object
            elif what != "blank":
                skipped += 1
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(text + "\n")

        assert read(path) == (kept, skipped)

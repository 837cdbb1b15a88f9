"""HelperStore / EnrollmentRecord: persistence, last-wins, validation."""

import json

import numpy as np
import pytest

from repro.service import EnrollmentRecord, HelperStore, default_extractor
from repro.service.store import key_digest


@pytest.fixture(scope="module")
def enrolled():
    """One real (helper, key, reference) triple from the default codec."""
    extractor = default_extractor()
    rng = np.random.default_rng(7)
    reference = rng.integers(0, 2, extractor.response_bits, dtype=np.uint8)
    helper, key = extractor.enroll(reference, rng=rng)
    return reference, helper, key


def _record(enrolled, chip_id=3):
    reference, helper, key = enrolled
    return EnrollmentRecord(
        chip_id=chip_id,
        reference=reference,
        helper=helper,
        key_digest=key_digest(key),
    )


class TestEnrollmentRecord:
    def test_roundtrip(self, enrolled):
        record = _record(enrolled)
        clone = EnrollmentRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert clone.chip_id == record.chip_id
        assert np.array_equal(clone.reference, record.reference)
        assert clone.key_digest == record.key_digest
        assert clone.helper.to_bytes() == record.helper.to_bytes()

    def test_reference_must_be_bits(self, enrolled):
        _, helper, key = enrolled
        with pytest.raises(ValueError, match="0/1"):
            EnrollmentRecord(
                chip_id=0,
                reference=np.array([0, 2, 1]),
                helper=helper,
                key_digest=key_digest(key),
            )

    def test_digest_is_not_the_key(self, enrolled):
        """The store commits to the key without containing it."""
        _, _, key = enrolled
        record = _record(enrolled)
        payload = record.to_dict()
        assert key.hex() not in json.dumps(payload)
        assert payload["key_digest"] == key_digest(key).hex()

    def test_short_reference_blob_rejected(self, enrolled):
        payload = _record(enrolled).to_dict()
        payload["reference"] = payload["reference"][:4]
        with pytest.raises(ValueError, match="too short"):
            EnrollmentRecord.from_dict(payload)


class TestHelperStore:
    def test_in_memory_put_get(self, enrolled):
        store = HelperStore()
        record = _record(enrolled)
        store.put(record)
        assert store.get(3) is record
        assert 3 in store
        assert store.get(99) is None
        assert len(store) == 1
        assert store.chip_ids() == [3]

    def test_persistence_across_reopen(self, enrolled, tmp_path):
        path = tmp_path / "helpers.jsonl"
        store = HelperStore(path)
        store.put(_record(enrolled, chip_id=1))
        store.put(_record(enrolled, chip_id=2))
        reopened = HelperStore(path)
        assert reopened.chip_ids() == [1, 2]
        assert np.array_equal(
            reopened.get(1).reference, _record(enrolled).reference
        )

    def test_reenrollment_last_wins(self, enrolled, tmp_path):
        path = tmp_path / "helpers.jsonl"
        store = HelperStore(path)
        store.put(_record(enrolled, chip_id=1))
        store.put(_record(enrolled, chip_id=1))  # appended, not rewritten
        assert len(path.read_text().splitlines()) == 2
        assert len(HelperStore(path)) == 1

    def test_malformed_lines_skipped_not_fatal(self, enrolled, tmp_path):
        path = tmp_path / "helpers.jsonl"
        store = HelperStore(path)
        store.put(_record(enrolled, chip_id=1))
        with path.open("a") as fh:
            fh.write("not json\n")
            fh.write('{"chip_id": 2}\n')  # missing every other field
        reopened = HelperStore(path)
        assert reopened.chip_ids() == [1]
        assert reopened.n_skipped == 2

    def test_too_deeply_nested_line_skipped_not_fatal(self, enrolled, tmp_path):
        """A line nested past the JSON decoder's recursion limit is one
        skipped line, so the store (and ``repro serve``) still opens."""
        path = tmp_path / "helpers.jsonl"
        HelperStore(path).put(_record(enrolled, chip_id=1))
        with path.open("a") as fh:
            fh.write("[" * 20_000 + "]" * 20_000 + "\n")
        HelperStore(path).put(_record(enrolled, chip_id=2))
        reopened = HelperStore(path)
        assert reopened.chip_ids() == [1, 2]
        assert reopened.n_skipped == 1

"""Enrollment-record store: the verifier's helper-data database.

The host side of the key-generation protocol keeps, per chip id:

* the **majority-voted reference response** — what threshold
  authentication compares fresh measurements against;
* the **public helper string** (:class:`~repro.keygen.helper.HelperData`)
  — what the fuzzy extractor needs to regenerate the key from an aged
  response;
* the **SHA-256 digest of the enrolled key** — so a regenerated key can
  be verified without the key itself ever touching the store (the
  standard never-store-the-secret discipline).

:class:`HelperStore` is an in-memory dict with optional append-only
JSONL persistence in the ledger idiom: every mutation appends one line,
re-enrollment appends a fresh line and last-wins on load, malformed
lines are skipped with a count rather than poisoning the whole file.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..keygen.helper import HelperData

PathLike = Union[str, pathlib.Path]

#: schema version stamped on every persisted record
STORE_FORMAT = 1


@dataclass(frozen=True)
class EnrollmentRecord:
    """One chip's enrolled identity: reference bits + public helper."""

    chip_id: int
    reference: np.ndarray  # majority-voted 0/1 response bits
    helper: HelperData
    key_digest: bytes  # SHA-256 of the enrolled key (never the key)

    def __post_init__(self) -> None:
        ref = np.asarray(self.reference)
        if ref.ndim != 1 or not np.all((ref == 0) | (ref == 1)):
            raise ValueError("reference must be a 1-D 0/1 bit vector")
        object.__setattr__(self, "reference", ref.astype(np.uint8))

    @property
    def n_bits(self) -> int:
        return int(self.reference.size)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": STORE_FORMAT,
            "chip_id": int(self.chip_id),
            "n_bits": self.n_bits,
            "reference": np.packbits(self.reference).tobytes().hex(),
            "helper": self.helper.to_bytes().hex(),
            "codec_spec": self.helper.codec_spec,
            "key_digest": self.key_digest.hex(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EnrollmentRecord":
        n_bits = int(payload["n_bits"])
        ref_bits = np.unpackbits(
            np.frombuffer(bytes.fromhex(payload["reference"]), dtype=np.uint8)
        )
        if ref_bits.size < n_bits:
            raise ValueError("reference blob too short for declared n_bits")
        helper = HelperData.from_bytes(
            bytes.fromhex(payload["helper"]), n_bits, payload["codec_spec"]
        )
        return cls(
            chip_id=int(payload["chip_id"]),
            reference=ref_bits[:n_bits],
            helper=helper,
            key_digest=bytes.fromhex(payload["key_digest"]),
        )


def key_digest(key: bytes) -> bytes:
    """The stored commitment to an enrolled key."""
    return hashlib.sha256(key).digest()


class HelperStore:
    """Chip-id → :class:`EnrollmentRecord`, optionally JSONL-persisted.

    With ``path`` set, every :meth:`put` appends one JSON line and the
    constructor replays the file (last record per chip wins, malformed
    lines counted in ``n_skipped``) — the same append-only discipline as
    :class:`~repro.telemetry.ledger.RunLedger`.

    Durability is the operating system's: :meth:`put` closes the file but
    never calls ``fsync``, so a returned (acknowledged) enrollment survives
    a crash of this process but can be lost if the OS crashes or power
    fails.  A process killed mid-append leaves at most a torn last line,
    which the next load skips and counts in ``n_skipped``.
    """

    def __init__(self, path: Optional[PathLike] = None):
        self.path = pathlib.Path(path) if path is not None else None
        self._records: Dict[int, EnrollmentRecord] = {}
        self.n_skipped = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = EnrollmentRecord.from_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                    self.n_skipped += 1
                    continue
                self._records[record.chip_id] = record

    def put(self, record: EnrollmentRecord) -> None:
        self._records[record.chip_id] = record
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(json.dumps(record.to_dict()) + "\n")

    def get(self, chip_id: int) -> Optional[EnrollmentRecord]:
        return self._records.get(int(chip_id))

    def __contains__(self, chip_id: int) -> bool:
        return int(chip_id) in self._records

    def __len__(self) -> int:
        return len(self._records)

    def chip_ids(self) -> List[int]:
        return sorted(self._records)

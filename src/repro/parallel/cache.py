"""Content-addressed on-disk cache for experiment result payloads.

Repeated runs of an identical configuration — CI's anchors job, a
baseline re-run, a developer re-rendering tables — recompute
the same population Monte-Carlo from scratch every time.  The run ledger
already keys measurements by config digest (same git SHA, seed and
config = same measurement); this module turns that observation into a
cache: the result object of an experiment run is stored under a key
derived from *what was computed*, and any later run asking for the same
computation gets the stored payload back bit-for-bit.

Key discipline (what makes a hit safe):

* the key digests the experiment id, the full scalar configuration
  (chips, ROs, stages, seed, mission profile) **and the package
  version** — a new release changes every key, so stale physics can
  never satisfy a new binary's request;
* worker count, telemetry flags and other how-it-ran knobs are
  deliberately *excluded*: the parallel engine is bit-identical across
  ``--jobs``, so a result computed with 4 workers is the correct answer
  for a 1-worker request.

Entries are a pickle payload plus a JSON sidecar carrying the payload's
SHA-256; :meth:`ResultCache.get` re-hashes on read and treats any
mismatch, unreadable metadata or undecodable pickle as a miss — with a
``RuntimeWarning`` naming the reason — so a corrupted cache degrades to
recomputation, never to wrong numbers.  Writes go through a temp file
and ``os.replace`` so a killed run cannot leave a half-written entry
under a valid key.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import time
import warnings
from datetime import datetime, timezone
from typing import Any, Dict, Mapping, Optional, Union

from .. import telemetry
from ..telemetry.manifest import package_version

PathLike = Union[str, pathlib.Path]

#: layout version of one cache entry, bumped on format changes (a bump
#: invalidates every existing entry by key, not by deletion)
CACHE_FORMAT = 1


def cache_key(
    experiment: str,
    config: Mapping[str, Any],
    *,
    version: Optional[str] = None,
) -> str:
    """The content address of one ``(experiment, config, version)`` run.

    ``config`` must be the complete result-determining configuration
    (anything that changes the numbers must be in it; anything that only
    changes how fast they were computed must not).  Keys are hex SHA-256
    of the canonical JSON form, so they are stable across processes,
    platforms and dict orderings.
    """
    if not experiment:
        raise ValueError("experiment id must be non-empty")
    blob = json.dumps(
        {
            "format": CACHE_FORMAT,
            "experiment": experiment,
            "config": config,
            "package_version": version or package_version(),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """A directory of content-addressed experiment payloads.

    Tracks hit/miss/store statistics over its lifetime (the CLI folds
    them into the run manifest's ``cache`` field).
    """

    def __init__(self, root: PathLike):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ---- paths -------------------------------------------------------

    def _payload_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.pkl"

    def _meta_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._payload_path(key).exists() and self._meta_path(key).exists()

    @staticmethod
    def _observe_since(t0: int, name: str) -> None:
        """Record one cache-op latency (``t0`` of 0 means tracing is off)."""
        if t0:
            telemetry.observe(name, (time.perf_counter_ns() - t0) / 1e9)

    # ---- read --------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The stored payload for ``key``, or ``None`` on a miss.

        A present-but-unusable entry (corrupt pickle, digest mismatch,
        bad metadata, wrong format) is a miss accompanied by one
        ``RuntimeWarning``; the caller recomputes and may overwrite the
        bad entry via :meth:`put`.
        """
        t0 = time.perf_counter_ns() if telemetry.enabled() else 0
        payload_path = self._payload_path(key)
        meta_path = self._meta_path(key)
        if not payload_path.exists() or not meta_path.exists():
            self.misses += 1
            self._observe_since(t0, "cache.miss_s")
            return None
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("format") != CACHE_FORMAT:
                raise ValueError(
                    f"entry format {meta.get('format')!r} != {CACHE_FORMAT}"
                )
            raw = payload_path.read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            if digest != meta.get("payload_sha256"):
                raise ValueError("payload bytes do not match recorded SHA-256")
            payload = pickle.loads(raw)
        except Exception as exc:
            warnings.warn(
                f"cache entry {key[:12]}… in {self.root} is unusable "
                f"({exc}); recomputing",
                RuntimeWarning,
                stacklevel=2,
            )
            self.misses += 1
            self._observe_since(t0, "cache.miss_s")
            return None
        self.hits += 1
        self._observe_since(t0, "cache.hit_s")
        return payload

    # ---- write -------------------------------------------------------

    def put(
        self,
        key: str,
        payload: Any,
        *,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> pathlib.Path:
        """Store ``payload`` under ``key``; returns the payload path.

        ``meta`` (e.g. the experiment id and config the key was derived
        from) is recorded in the sidecar for human audit; it does not
        participate in addressing.
        """
        t0 = time.perf_counter_ns() if telemetry.enabled() else 0
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        sidecar = {
            "format": CACHE_FORMAT,
            "payload_sha256": hashlib.sha256(raw).hexdigest(),
            "payload_bytes": len(raw),
            "package_version": package_version(),
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        if meta:
            sidecar["meta"] = dict(meta)
        payload_path = self._payload_path(key)
        self._atomic_write(payload_path, raw)
        self._atomic_write(
            self._meta_path(key),
            (json.dumps(sidecar, indent=2, sort_keys=True, default=str) + "\n").encode(),
        )
        self.stores += 1
        self._observe_since(t0, "cache.put_s")
        return payload_path

    @staticmethod
    def _atomic_write(path: pathlib.Path, data: bytes) -> None:
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    # ---- reporting ---------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache {str(self.root)!r} hits={self.hits} "
            f"misses={self.misses} stores={self.stores}>"
        )

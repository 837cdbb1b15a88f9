"""The ledger: an append-only JSONL record of runs and benchmarks.

PR-to-PR drift in the numbers that define this reproduction — the
abstract's 32 % / 7.7 % ten-year flip rates, the 49.67 % inter-chip HD —
is invisible to a single run: every individual result looks plausible.
Longitudinal PUF studies make the same point about silicon (reliability
claims only hold up under repeated measurement over time); this module
applies that discipline to the codebase itself.

One :class:`LedgerEntry` per line, of one of two kinds:

* ``run`` — one experiment invocation: the experiment id, its flat
  scalar dict (:meth:`~repro.analysis.experiments.BitflipResult.ledger_scalars`
  and friends) and the full :class:`~repro.telemetry.manifest.RunManifest`.
  The run key ``<git sha>:<seed>:<config digest>`` names the
  measurement; entries across SHAs are the series ``repro history``
  renders and ``repro check-anchors --from-ledger`` gates.
* ``perf`` — one benchmark run: throughput, wall time, peak RSS and the
  p50/p99 of every histogram site (flattened as ``site.p50``), with a
  provenance block of git SHA, creation time and host identity.  The
  run key is ``<git sha>:<host fingerprint>:<bench>``; the fingerprint
  (:func:`~repro.telemetry.manifest.host_fingerprint`) digests the
  platform triple, numpy version and CPU count but not the hostname, so
  interchangeable CI runners share one series while a laptop and a CI
  box never get compared.  ``repro perf history/gate`` read these.

Both kinds may share one file.  Lines are written through
:mod:`repro.telemetry.jsonl`, so a run killed mid-append costs its own
line and never the next one.  Format-1 lines, written when the run and
perf ledgers were separate files, still load.

One ingest path turns artefacts into perf entries:
:func:`entry_from_bench_payload` for a ``benchmarks/results/*.json``
payload (``benchmarks/_common.py`` appends one per artefact when
``REPRO_PERF_LEDGER`` names a ledger file; ``repro loadgen
--perf-ledger`` ingests its own ``--out`` payload the same way).
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from . import jsonl
from .manifest import (
    RunManifest,
    execution_fields,
    head_sha,
    host_fingerprint,
    package_version,
    validate_manifest,
)

PathLike = Union[str, pathlib.Path]

#: format version of one ledger line: 2 added ``kind`` and merged the
#: perf ledger in; format-1 lines of either ledger still load
LEDGER_FORMAT = 2

#: the entry kinds, with the separator their series keys use
KIND_SEPARATORS = {"run": ".", "perf": ":"}

#: environment variable naming the ledger file the benchmark harness
#: appends perf entries to (opt-in: unset means no writes at all)
PERF_LEDGER_ENV = "REPRO_PERF_LEDGER"

#: the histogram quantiles a perf entry records per instrumented site
ENTRY_QUANTILES = ("p50", "p99")


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _clean_scalars(scalars: Mapping[str, Any]) -> Dict[str, float]:
    """Keep the finite numeric scalars (the only thing trends can use)."""
    return {
        str(key): float(value)
        for key, value in scalars.items()
        if _number(value) and math.isfinite(value)
    }


@dataclass(frozen=True)
class LedgerEntry:
    """One run's or benchmark's headline scalars plus provenance."""

    kind: str  # "run" | "perf"
    name: str  # experiment id or bench id
    scalars: Dict[str, float]
    manifest: Dict[str, Any]  # RunManifest dict, or the perf provenance block
    version: str = field(default_factory=package_version)

    def __post_init__(self):
        if self.kind not in KIND_SEPARATORS:
            raise ValueError(f"unknown ledger entry kind {self.kind!r}")
        if not self.name:
            raise ValueError("experiment id must be non-empty")
        object.__setattr__(self, "scalars", _clean_scalars(self.scalars))

    @classmethod
    def collect(
        cls,
        name: str,
        scalars: Mapping[str, Any],
        manifest: Optional[RunManifest] = None,
    ) -> "LedgerEntry":
        """A run entry, collecting a fresh manifest when none is given."""
        if manifest is None:
            manifest = RunManifest.collect()
        return cls("run", name, dict(scalars), manifest.to_dict())

    @classmethod
    def perf(cls, name: str, scalars: Mapping[str, Any]) -> "LedgerEntry":
        """A perf entry stamped with the current host and checkout."""
        provenance = {
            "created_utc": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(),
            "git_sha": head_sha(),
            "host": host_fingerprint(),
            "execution": execution_fields(),
        }
        return cls("perf", name, dict(scalars), provenance)

    @property
    def host(self) -> str:
        """The perf entry's host fingerprint (empty on run entries)."""
        return str(self.manifest.get("host") or "")

    def run_key(self) -> str:
        """The measurement identity.

        ``<git sha>:<seed>:<config digest>`` for a run: two entries
        sharing it came from the same code, seed and configuration, so
        any scalar difference is nondeterminism, not drift.
        ``<git sha>:<host fingerprint>:<bench>`` for a perf entry:
        entries sharing it are repeats of one measurement.
        """
        sha = str(self.manifest.get("git_sha") or "nogit")[:12]
        if self.kind == "perf":
            return f"{sha}:{self.host or 'nohost'}:{self.name}"
        config = self.manifest.get("config") or {}
        digest = hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()
        ).hexdigest()[:8]
        return f"{sha}:{self.manifest.get('seed')}:{digest}"

    def created_utc(self) -> str:
        return str(self.manifest.get("created_utc", ""))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": LEDGER_FORMAT,
            "kind": self.kind,
            "name": self.name,
            "scalars": dict(sorted(self.scalars.items())),
            "manifest": self.manifest,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LedgerEntry":
        """Rebuild (and validate) an entry from a format-1 or -2 line."""
        if not isinstance(data, Mapping):
            raise ValueError("ledger entry must be a JSON object")
        fmt = data.get("format", 1)
        if fmt == 1:
            data = _from_format1(data)
        elif fmt != LEDGER_FORMAT:
            raise ValueError(f"unknown ledger format {fmt!r}")
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("ledger entry has no experiment id")
        scalars = data.get("scalars")
        if not isinstance(scalars, Mapping):
            raise ValueError(f"entry {name!r} has no scalars mapping")
        manifest = data.get("manifest")
        if not isinstance(manifest, Mapping):
            raise ValueError(f"entry {name!r} has no manifest")
        kind = data.get("kind")
        if kind == "run":
            validate_manifest(dict(manifest))
        elif kind == "perf":
            sha = manifest.get("git_sha")
            if sha is not None and not isinstance(sha, str):
                raise ValueError(f"perf entry {name!r} has bad git_sha")
            if not isinstance(manifest.get("execution") or {}, Mapping):
                raise ValueError(f"perf entry {name!r} has bad execution block")
        return cls(
            kind=str(kind),
            name=name,
            scalars=dict(scalars),
            manifest=dict(manifest),
            version=str(data.get("version", "")),
        )


def _from_format1(data: Mapping[str, Any]) -> Dict[str, Any]:
    """A format-1 line in format-2 shape.

    Format 1 had two layouts: run-ledger lines (``experiment``,
    ``scalars``, ``manifest``) and perf-ledger lines (``bench``,
    ``values``, ``quantiles`` and top-level provenance fields).
    """
    if "bench" not in data:
        return {
            "kind": "run",
            "name": data.get("experiment"),
            "scalars": data.get("scalars"),
            "manifest": data.get("manifest"),
            "version": data.get("version", ""),
        }
    values = data.get("values")
    quantiles = data.get("quantiles") or {}
    if not isinstance(values, Mapping) or not isinstance(quantiles, Mapping):
        raise ValueError(f"perf entry {data.get('bench')!r} has bad values")
    return {
        "kind": "perf",
        "name": data.get("bench"),
        "scalars": {**values, **quantiles},
        "manifest": {
            "created_utc": str(data.get("created_utc", "")),
            "git_sha": data.get("git_sha"),
            "host": str(data.get("host", "")),
            "execution": data.get("execution") or {},
        },
        "version": data.get("version", ""),
    }


class Ledger:
    """An append-only JSONL ledger file of :class:`LedgerEntry` lines."""

    def __init__(self, path: PathLike):
        self.path = pathlib.Path(path)
        #: lines the last :meth:`entries` call could not load
        self.n_skipped = 0

    def append(self, entry: LedgerEntry) -> None:
        """Append one entry (creating parent directories as needed)."""
        jsonl.append(self.path, entry.to_dict())

    def record(
        self,
        name: str,
        scalars: Mapping[str, Any],
        manifest: Optional[RunManifest] = None,
    ) -> LedgerEntry:
        """Collect-and-append a run entry; returns the appended entry."""
        entry = LedgerEntry.collect(name, scalars, manifest)
        self.append(entry)
        return entry

    def entries(
        self, kind: Optional[str] = None, strict: bool = False
    ) -> List[LedgerEntry]:
        """All loadable entries (of ``kind``, if given) in file order.

        Malformed lines (a torn tail from a killed run, stray garbage)
        are skipped and counted in :attr:`n_skipped`, or raise with
        their line number when ``strict``; an absent file is an empty
        ledger, not an error.
        """
        entries, self.n_skipped = jsonl.read(
            self.path, LedgerEntry.from_dict, strict
        )
        return [e for e in entries if kind is None or e.kind == kind]

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self.entries())

    def __len__(self) -> int:
        return len(self.entries())


def metric_series(entries: List[LedgerEntry]) -> Dict[str, List[float]]:
    """Chronological per-metric series in entry (file) order.

    Run scalars are keyed ``<experiment>.<key>`` (``e2.flips``), perf
    scalars ``<bench>:<metric>`` (``bench_x:wall_s``).
    """
    series: Dict[str, List[float]] = {}
    for entry in entries:
        sep = KIND_SEPARATORS[entry.kind]
        for key, value in entry.scalars.items():
            series.setdefault(f"{entry.name}{sep}{key}", []).append(value)
    return series


def _numbers(section: Any, prefix: str = "") -> Dict[str, float]:
    """The numeric values of a mapping section (nothing if not a mapping)."""
    if not isinstance(section, Mapping):
        return {}
    return {
        f"{prefix}{key}": float(value)
        for key, value in section.items()
        if _number(value)
    }


def entry_from_bench_payload(
    name: str, payload: Mapping[str, Any]
) -> LedgerEntry:
    """A perf entry from one ``benchmarks/results/*.json`` payload.

    Takes every scalar from the ``values`` section, throughput metrics
    from the ``roofline`` section (``chips_years_per_s`` keys — the
    change-point detector knows their bigger-is-better direction by
    name), for serving artefacts (``repro loadgen --out``) the flat
    RED/SLO scalars of the ``service`` section under a ``service.``
    prefix, peak RSS from the ``memory`` section, and p50/p99 per site
    from the ``histograms`` summaries.  Earlier sections win on a key
    clash; absent sections cost nothing.
    """
    scalars: Dict[str, Any] = dict(payload.get("values") or {})
    service = payload.get("service")
    if not isinstance(service, Mapping):
        service = {}
    memory = _numbers(payload.get("memory"))
    for section in (
        _numbers(payload.get("roofline")),
        _numbers(service.get("metrics"), "service."),
        {k: memory[k] for k in ("peak_rss_bytes",) if k in memory},
    ):
        for key, value in section.items():
            scalars.setdefault(key, value)
    histograms = payload.get("histograms")
    if isinstance(histograms, Mapping):
        for site, summary in histograms.items():
            for label in ENTRY_QUANTILES:
                value = _numbers(summary).get(label)
                if value is not None and math.isfinite(value):
                    scalars[f"{site}.{label}"] = value
    return LedgerEntry.perf(name, scalars)

"""Run manifests: the provenance record attached to every experiment run.

Long-horizon PUF measurement campaigns are only auditable when every
artefact says exactly how it was produced.  :class:`RunManifest` captures
the full reproducibility tuple — RNG seed, experiment configuration,
package version, git commit, numpy version, python/platform — in one
JSON-serialisable object that the CLI writes next to its metrics and the
benchmark harness embeds in every ``benchmarks/results/*.json`` artefact.

Only the standard library is used (the git SHA comes from one
``git rev-parse`` subprocess per process, with a short timeout, and
falls back to ``None`` outside a checkout), so collecting a manifest
never makes a run fail.
"""

from __future__ import annotations

import datetime
import functools
import hashlib
import os
import pathlib
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

#: JSON-schema-style description of a serialised manifest.  Kept as plain
#: data (not a jsonschema dependency) and enforced by
#: :func:`validate_manifest`, which CI's smoke step runs against the
#: CLI's ``--metrics-out`` artefact.
MANIFEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "created_utc",
        "seed",
        "config",
        "package",
        "package_version",
        "git_sha",
        "numpy_version",
        "python_version",
        "platform",
        "argv",
    ],
    "properties": {
        "created_utc": {"type": "string"},
        "seed": {"type": ["integer", "null"]},
        "config": {"type": "object"},
        "package": {"type": "string"},
        "package_version": {"type": "string"},
        "git_sha": {"type": ["string", "null"]},
        "numpy_version": {"type": ["string", "null"]},
        "python_version": {"type": "string"},
        "platform": {"type": "string"},
        "argv": {"type": "array"},
        # optional how-it-ran fields (absent on older manifests): worker
        # count, result-cache usage and population-store execution mode.
        # Deliberately OUTSIDE "config" so the ledger's config digest —
        # which keys comparable measurements — is unchanged by
        # parallelism, caching or out-of-core execution.
        "jobs": {"type": ["integer", "null"]},
        "cache": {"type": ["object", "null"]},
        "store": {"type": ["string", "null"]},
        "block_size": {"type": ["integer", "null"]},
        "peak_rss_bytes": {"type": ["integer", "null"]},
        # histogram summaries ({name: {count, mean, p50, p95, p99, max}})
        # captured when a tracer with histogram metrics was installed.
        # Also outside "config": a distribution digest describes how the
        # run behaved, never what it measured.
        "histograms": {"type": ["object", "null"]},
        # performance-relevant machine identity ({"platform_triple",
        # "numpy_version", "cpu_count", "host_fingerprint"}) — the perf
        # ledger keys comparable timings on the fingerprint, so only
        # fields that change the numbers belong here (never hostname:
        # CI runners are interchangeable within a generation).
        "execution": {"type": ["object", "null"]},
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "null": lambda v: v is None,
}


def package_version() -> str:
    """The installed package version, with a source-tree fallback.

    Prefers importlib metadata (what ``pip`` actually installed, the
    number that makes ledger entries comparable across installs) and
    falls back to the source tree's ``repro.__version__`` when the
    package is run uninstalled (``PYTHONPATH=src``).
    """
    try:
        import importlib.metadata as _metadata

        return _metadata.version("repro")
    except Exception:
        from .. import __version__

        return __version__


def _numpy_version() -> Optional[str]:
    try:
        import numpy

        return numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        return None


def platform_triple() -> str:
    """A compact machine/OS/interpreter triple, e.g. ``x86_64-linux-cpython3.11``.

    Deliberately coarser than :func:`platform.platform`: kernel patch
    levels and distro strings churn without moving benchmark numbers,
    so they stay out of the perf ledger's host identity.
    """
    machine = platform.machine() or "unknown"
    system = (platform.system() or "unknown").lower()
    impl = (platform.python_implementation() or "python").lower()
    major, minor = sys.version_info[:2]
    return f"{machine}-{system}-{impl}{major}.{minor}"


def host_fingerprint() -> str:
    """A stable 12-hex-digit digest of performance-relevant host identity.

    Hashes the platform triple, numpy version and CPU count — and
    nothing else.  Hostname is excluded on purpose: interchangeable CI
    runners must share a fingerprint or the longitudinal perf series
    fragments into single-run histories that can never leave warm-up.
    """
    parts = [
        platform_triple(),
        _numpy_version() or "no-numpy",
        str(os.cpu_count() or 0),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def execution_fields() -> Dict[str, Any]:
    """The manifest's optional ``execution`` block, freshly collected."""
    return {
        "platform_triple": platform_triple(),
        "numpy_version": _numpy_version(),
        "cpu_count": os.cpu_count(),
        "host_fingerprint": host_fingerprint(),
    }


def git_sha(repo_dir: Optional[pathlib.Path] = None) -> Optional[str]:
    """The current checkout's commit SHA, or ``None`` when unavailable."""
    if repo_dir is None:
        repo_dir = pathlib.Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


@functools.lru_cache(maxsize=None)
def head_sha() -> Optional[str]:
    """:func:`git_sha` of this package's checkout, probed once per process.

    Every manifest and perf entry of a process records the code it
    imported, so one ``git rev-parse`` serves them all (a CLI run that
    writes a ledger, a metrics file and a histogram entry collects three
    manifests).  ``head_sha.cache_clear()`` forgets the answer.
    """
    return git_sha()


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to re-run (or audit) one experiment run."""

    created_utc: str
    seed: Optional[int]
    config: Dict[str, Any] = field(default_factory=dict)
    package: str = "repro"
    package_version: str = ""
    git_sha: Optional[str] = None
    numpy_version: Optional[str] = None
    python_version: str = ""
    platform: str = ""
    argv: list = field(default_factory=list)
    #: worker-process count the run used (None = not recorded / serial)
    jobs: Optional[int] = None
    #: result-cache usage summary ({"dir": ..., "hits": [...], "misses":
    #: [...]}), or None when no cache directory was given
    cache: Optional[Dict[str, Any]] = None
    #: population-store execution mode ("ram" or "mmap"), or None when
    #: not recorded (older manifests, non-population commands)
    store: Optional[str] = None
    #: store fabrication block size in chips (None = store default / ram)
    block_size: Optional[int] = None
    #: process peak RSS in bytes sampled at run end (None = not sampled)
    peak_rss_bytes: Optional[int] = None
    #: histogram summaries from the run's tracer (None = no histograms)
    histograms: Optional[Dict[str, Any]] = None
    #: performance-relevant machine identity (:func:`execution_fields`);
    #: None only on manifests predating the perf observatory
    execution: Optional[Dict[str, Any]] = None

    @classmethod
    def collect(
        cls,
        seed: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        argv: Optional[list] = None,
        jobs: Optional[int] = None,
        cache: Optional[Dict[str, Any]] = None,
        store: Optional[str] = None,
        block_size: Optional[int] = None,
        peak_rss_bytes: Optional[int] = None,
        histograms: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        """Capture the current process's provenance tuple.

        ``config`` is any JSON-ready mapping describing the run (the CLI
        passes its resolved argument namespace; benchmarks pass their
        scale constants).
        """
        numpy_version = _numpy_version()
        return cls(
            created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
            seed=None if seed is None else int(seed),
            config=dict(config or {}),
            package="repro",
            package_version=package_version(),
            git_sha=head_sha(),
            numpy_version=numpy_version,
            python_version=sys.version.split()[0],
            platform=platform.platform(),
            argv=list(sys.argv if argv is None else argv),
            jobs=None if jobs is None else int(jobs),
            cache=None if cache is None else dict(cache),
            store=None if store is None else str(store),
            block_size=None if block_size is None else int(block_size),
            peak_rss_bytes=None if peak_rss_bytes is None else int(peak_rss_bytes),
            histograms=None if histograms is None else dict(histograms),
            execution=execution_fields(),
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from its :meth:`to_dict` form (validated)."""
        validate_manifest(data)
        kwargs = {k: data[k] for k in MANIFEST_SCHEMA["required"]}
        for key in (
            "jobs",
            "cache",
            "store",
            "block_size",
            "peak_rss_bytes",
            "histograms",
            "execution",
        ):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)


def validate_manifest(data: Any) -> None:
    """Check ``data`` against :data:`MANIFEST_SCHEMA`.

    Raises :class:`ValueError` naming every violation at once, so a CI
    failure message is actionable in one read.
    """
    problems = []
    if not isinstance(data, dict):
        raise ValueError(f"manifest must be a JSON object, got {type(data).__name__}")
    for key in MANIFEST_SCHEMA["required"]:
        if key not in data:
            problems.append(f"missing required field {key!r}")
    for key, spec in MANIFEST_SCHEMA["properties"].items():
        if key not in data:
            continue
        allowed = spec["type"]
        if isinstance(allowed, str):
            allowed = [allowed]
        if not any(_TYPE_CHECKS[t](data[key]) for t in allowed):
            problems.append(
                f"field {key!r} has type {type(data[key]).__name__}, "
                f"expected {' | '.join(allowed)}"
            )
    if problems:
        raise ValueError("invalid manifest: " + "; ".join(problems))

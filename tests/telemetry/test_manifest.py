"""RunManifest: collection, JSON schema round-trip, validation errors."""

import json
import subprocess

import pytest

from repro import __version__
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    execution_fields,
    git_sha,
    host_fingerprint,
    package_version,
    platform_triple,
    validate_manifest,
)
from repro.telemetry import manifest as manifest_mod


@pytest.fixture(scope="module")
def manifest():
    return RunManifest.collect(seed=42, config={"n_chips": 4, "n_ros": 16})


class TestCollect:
    def test_captures_package_version(self, manifest):
        assert manifest.package == "repro"
        assert manifest.package_version == __version__

    def test_captures_environment(self, manifest):
        import numpy

        assert manifest.numpy_version == numpy.__version__
        assert manifest.python_version
        assert manifest.platform

    def test_seed_and_config_pass_through(self, manifest):
        assert manifest.seed == 42
        assert manifest.config == {"n_chips": 4, "n_ros": 16}

    def test_seed_optional(self):
        m = RunManifest.collect()
        assert m.seed is None

    def test_git_sha_in_this_checkout(self, manifest):
        # the test suite runs inside the repository, so a SHA must resolve
        sha = git_sha()
        assert sha is not None and len(sha) == 40
        assert manifest.git_sha == sha

    def test_git_sha_outside_checkout(self, tmp_path):
        assert git_sha(tmp_path) is None


class TestGitShaFallback:
    """Collecting a manifest must never fail, even with no git at all."""

    def test_git_binary_absent(self, monkeypatch):
        def no_git(*args, **kwargs):
            raise OSError("No such file or directory: 'git'")

        monkeypatch.setattr(manifest_mod.subprocess, "run", no_git)
        assert git_sha() is None

    def test_git_timeout(self, monkeypatch):
        def hangs(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, timeout=5.0)

        monkeypatch.setattr(manifest_mod.subprocess, "run", hangs)
        assert git_sha() is None

    def test_git_empty_stdout(self, monkeypatch):
        def empty(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")

        monkeypatch.setattr(manifest_mod.subprocess, "run", empty)
        assert git_sha() is None

    def test_collect_survives_missing_git(self, monkeypatch, fresh_head_sha):
        def no_git(*args, **kwargs):
            raise OSError("no git")

        monkeypatch.setattr(manifest_mod.subprocess, "run", no_git)
        m = RunManifest.collect(seed=1)
        assert m.git_sha is None
        validate_manifest(m.to_dict())


@pytest.fixture()
def fresh_head_sha():
    """Forget the process's SHA before and after the test, so the test
    probes git itself and leaves no answer it forced behind."""
    manifest_mod.head_sha.cache_clear()
    yield
    manifest_mod.head_sha.cache_clear()


class TestHeadShaOnce:
    def test_manifests_of_one_process_probe_git_once(
        self, monkeypatch, fresh_head_sha
    ):
        calls = []
        run = subprocess.run

        def counting(cmd, *args, **kwargs):
            calls.append(list(cmd))
            return run(cmd, *args, **kwargs)

        monkeypatch.setattr(manifest_mod.subprocess, "run", counting)
        shas = {RunManifest.collect(seed=s).git_sha for s in range(3)}
        assert shas == {git_sha()}
        # three manifests and the direct probe above: two rev-parses
        assert [c[:2] for c in calls] == [["git", "rev-parse"]] * 2


class TestPackageVersion:
    def test_resolves_to_a_version_string(self):
        version = package_version()
        assert isinstance(version, str) and version

    def test_source_tree_fallback(self, monkeypatch):
        import importlib.metadata

        def not_installed(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", not_installed)
        assert package_version() == __version__


class TestRoundTrip:
    def test_dict_round_trip(self, manifest):
        rebuilt = RunManifest.from_dict(manifest.to_dict())
        assert rebuilt == manifest

    def test_json_round_trip(self, manifest):
        rebuilt = RunManifest.from_dict(json.loads(json.dumps(manifest.to_dict())))
        assert rebuilt == manifest

    def test_to_dict_is_json_ready(self, manifest):
        json.dumps(manifest.to_dict())  # must not raise

    def test_to_dict_matches_schema(self, manifest):
        validate_manifest(manifest.to_dict())


class TestValidation:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_manifest(["not", "a", "dict"])

    def test_missing_field_named_in_error(self, manifest):
        data = manifest.to_dict()
        del data["seed"]
        with pytest.raises(ValueError, match="'seed'"):
            validate_manifest(data)

    def test_wrong_type_named_in_error(self, manifest):
        data = manifest.to_dict()
        data["config"] = "not-a-mapping"
        with pytest.raises(ValueError, match="'config'"):
            validate_manifest(data)

    def test_all_problems_reported_at_once(self, manifest):
        data = manifest.to_dict()
        del data["argv"]
        data["seed"] = "forty-two"
        with pytest.raises(ValueError) as err:
            validate_manifest(data)
        assert "'argv'" in str(err.value) and "'seed'" in str(err.value)

    def test_nullables_accept_null(self, manifest):
        data = manifest.to_dict()
        data["git_sha"] = None
        data["numpy_version"] = None
        data["seed"] = None
        validate_manifest(data)

    def test_schema_covers_every_required_field(self):
        assert set(MANIFEST_SCHEMA["required"]) <= set(
            MANIFEST_SCHEMA["properties"]
        )


class TestExecutionFields:
    """The optional jobs / cache fields added by the parallel-engine PR."""

    def test_default_none(self, manifest):
        assert manifest.jobs is None
        assert manifest.cache is None

    def test_collect_records_jobs_and_cache(self):
        summary = {"dir": "/tmp/c", "hits": ["e2"], "misses": []}
        m = RunManifest.collect(seed=1, jobs=4, cache=summary)
        assert m.jobs == 4
        assert m.cache == summary

    def test_jobs_outside_config(self):
        """jobs/cache must not contaminate the ledger-digested config."""
        m = RunManifest.collect(seed=1, config={"n_chips": 4}, jobs=2)
        assert "jobs" not in m.config
        assert m.to_dict()["jobs"] == 2

    def test_round_trip_preserves_execution_fields(self):
        m = RunManifest.collect(
            seed=1, jobs=2, cache={"dir": "/c", "hits": [], "misses": ["e1"]}
        )
        clone = RunManifest.from_dict(json.loads(json.dumps(m.to_dict())))
        assert clone.jobs == 2
        assert clone.cache == m.cache

    def test_old_manifest_dict_still_loads(self, manifest):
        """Pre-PR payloads (no jobs/cache keys) remain valid."""
        data = manifest.to_dict()
        del data["jobs"]
        del data["cache"]
        validate_manifest(data)
        clone = RunManifest.from_dict(data)
        assert clone.jobs is None and clone.cache is None

    def test_schema_rejects_wrong_types(self, manifest):
        data = manifest.to_dict()
        data["jobs"] = "four"
        with pytest.raises(ValueError, match="jobs"):
            validate_manifest(data)
        data = manifest.to_dict()
        data["cache"] = ["not", "an", "object"]
        with pytest.raises(ValueError, match="cache"):
            validate_manifest(data)

    def test_execution_fields_optional_in_schema(self):
        assert "jobs" not in MANIFEST_SCHEMA["required"]
        assert "cache" not in MANIFEST_SCHEMA["required"]


class TestHostIdentity:
    """The perf ledger's host identity: triple, fingerprint, execution."""

    def test_platform_triple_shape(self):
        import platform as platform_mod
        import sys

        triple = platform_triple()
        machine, system, impl = triple.split("-")
        assert machine == platform_mod.machine()
        assert system == platform_mod.system().lower()
        assert impl.endswith(f"{sys.version_info[0]}.{sys.version_info[1]}")

    def test_fingerprint_is_stable_12_hex_digits(self):
        fp = host_fingerprint()
        assert fp == host_fingerprint()  # deterministic on one host
        assert len(fp) == 12
        int(fp, 16)  # must be hex

    def test_fingerprint_excludes_hostname(self, monkeypatch):
        """Interchangeable CI runners must share one fingerprint, so a
        hostname change alone cannot move it."""
        import platform as platform_mod

        before = host_fingerprint()
        monkeypatch.setattr(platform_mod, "node", lambda: "other-runner-42")
        assert host_fingerprint() == before

    def test_fingerprint_tracks_performance_relevant_identity(
        self, monkeypatch
    ):
        before = host_fingerprint()
        monkeypatch.setattr(
            manifest_mod, "platform_triple", lambda: "riscv64-linux-cpython9.9"
        )
        assert host_fingerprint() != before

    def test_execution_fields_contents(self):
        import os

        fields = execution_fields()
        assert set(fields) == {
            "platform_triple",
            "numpy_version",
            "cpu_count",
            "host_fingerprint",
        }
        assert fields["platform_triple"] == platform_triple()
        assert fields["cpu_count"] == os.cpu_count()
        assert fields["host_fingerprint"] == host_fingerprint()

    def test_collect_embeds_execution_block(self):
        m = RunManifest.collect(seed=1)
        assert m.execution == execution_fields()
        validate_manifest(m.to_dict())

    def test_execution_round_trips_and_old_manifests_load(self):
        m = RunManifest.collect(seed=1)
        clone = RunManifest.from_dict(json.loads(json.dumps(m.to_dict())))
        assert clone.execution == m.execution
        data = m.to_dict()
        del data["execution"]  # pre-perf-ledger artefact
        validate_manifest(data)
        assert RunManifest.from_dict(data).execution is None

    def test_schema_rejects_wrong_type(self):
        data = RunManifest.collect(seed=1).to_dict()
        data["execution"] = "x86_64"
        with pytest.raises(ValueError, match="execution"):
            validate_manifest(data)

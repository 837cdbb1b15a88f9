"""Ledger + LedgerEntry: run and perf entries, format-1 loading,
appends, the corrupt-line policy, series and the perf ingest path."""

import json
import math

import pytest

from repro.telemetry.ledger import (
    LEDGER_FORMAT,
    Ledger,
    LedgerEntry,
    entry_from_bench_payload,
    metric_series,
)
from repro.telemetry.manifest import (
    RunManifest,
    git_sha,
    host_fingerprint,
    package_version,
)


@pytest.fixture(scope="module")
def manifest():
    return RunManifest.collect(seed=7, config={"n_chips": 4, "n_ros": 16})


def perf(name, scalars, host):
    """A perf entry with a pinned host fingerprint."""
    entry = LedgerEntry.perf(name, scalars)
    return LedgerEntry("perf", name, scalars, {**entry.manifest, "host": host})


class TestRunEntry:
    def test_collect_carries_version_and_kind(self, manifest):
        entry = LedgerEntry.collect("e2", {"a": 1.0}, manifest)
        assert entry.version == package_version()
        assert entry.kind == "run"
        assert entry.to_dict()["format"] == LEDGER_FORMAT
        assert entry.manifest["seed"] == 7

    def test_collect_without_manifest_collects_one(self):
        entry = LedgerEntry.collect("e2", {"a": 1.0})
        assert entry.manifest["package"] == "repro"

    def test_scalars_cleaned(self, manifest):
        entry = LedgerEntry.collect(
            "e2",
            {
                "ok_int": 3,
                "ok_float": 1.5,
                "flag": True,
                "label": "text",
                "nan": float("nan"),
                "inf": float("inf"),
            },
            manifest,
        )
        assert entry.scalars == {"ok_int": 3.0, "ok_float": 1.5}

    def test_empty_experiment_rejected(self, manifest):
        with pytest.raises(ValueError, match="experiment id"):
            LedgerEntry.collect("", {"a": 1.0}, manifest)

    def test_unknown_kind_rejected(self, manifest):
        with pytest.raises(ValueError, match="kind"):
            LedgerEntry("bench", "b", {}, manifest.to_dict())

    def test_dict_round_trip(self, manifest):
        entry = LedgerEntry.collect("e3", {"u": 49.7}, manifest)
        rebuilt = LedgerEntry.from_dict(
            json.loads(json.dumps(entry.to_dict()))
        )
        assert rebuilt == entry

    def test_from_dict_rejects_malformed(self, manifest):
        good = LedgerEntry.collect("e3", {"u": 49.7}, manifest).to_dict()
        with pytest.raises(ValueError, match="JSON object"):
            LedgerEntry.from_dict(["nope"])
        for key, match in [
            ("name", "experiment id"),
            ("scalars", "scalars"),
            ("manifest", "manifest"),
            ("kind", "kind"),
        ]:
            bad = dict(good)
            del bad[key]
            with pytest.raises(ValueError, match=match):
                LedgerEntry.from_dict(bad)
        with pytest.raises(ValueError, match="format"):
            LedgerEntry.from_dict({**good, "format": LEDGER_FORMAT + 1})

    def test_from_dict_validates_manifest(self, manifest):
        data = LedgerEntry.collect("e3", {"u": 49.7}, manifest).to_dict()
        del data["manifest"]["seed"]
        with pytest.raises(ValueError, match="'seed'"):
            LedgerEntry.from_dict(data)


class TestPerfEntry:
    def test_stamps_provenance(self):
        entry = LedgerEntry.perf("bench_x", {"wall_s": 1.5})
        assert entry.kind == "perf"
        assert entry.manifest["git_sha"] == git_sha()
        assert entry.host == host_fingerprint()
        assert entry.created_utc()
        assert entry.manifest["execution"]["host_fingerprint"] == entry.host

    def test_non_finite_scalars_dropped(self):
        entry = LedgerEntry.perf(
            "b", {"ok": 1.0, "bad": math.nan, "site.p50": math.inf}
        )
        assert entry.scalars == {"ok": 1.0}

    def test_round_trip(self):
        entry = LedgerEntry.perf("bench_x", {"wall_s": 1.5, "site.p50": 0.01})
        clone = LedgerEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert clone == entry

    def test_from_dict_rejects_bad_provenance(self):
        data = LedgerEntry.perf("b", {"wall_s": 1.0}).to_dict()
        data["manifest"]["git_sha"] = 7
        with pytest.raises(ValueError, match="git_sha"):
            LedgerEntry.from_dict(data)
        data["manifest"].update(git_sha=None, execution=[1])
        with pytest.raises(ValueError, match="execution"):
            LedgerEntry.from_dict(data)


class TestRunKey:
    def test_same_provenance_same_key(self, manifest):
        a = LedgerEntry.collect("e2", {"x": 1.0}, manifest)
        b = LedgerEntry.collect("e3", {"y": 2.0}, manifest)
        assert a.run_key() == b.run_key()

    def test_seed_changes_key(self):
        cfg = {"n_chips": 4}
        a = LedgerEntry.collect("e2", {}, RunManifest.collect(seed=1, config=cfg))
        b = LedgerEntry.collect("e2", {}, RunManifest.collect(seed=2, config=cfg))
        assert a.run_key() != b.run_key()

    def test_config_changes_key(self):
        a = LedgerEntry.collect(
            "e2", {}, RunManifest.collect(seed=1, config={"n_chips": 4})
        )
        b = LedgerEntry.collect(
            "e2", {}, RunManifest.collect(seed=1, config={"n_chips": 8})
        )
        assert a.run_key() != b.run_key()

    def test_missing_git_sha_tolerated(self, manifest):
        data = LedgerEntry.collect("e2", {}, manifest).to_dict()
        data["manifest"]["git_sha"] = None
        entry = LedgerEntry.from_dict(data)
        assert entry.run_key().startswith("nogit:")

    def test_perf_key_shape(self):
        entry = LedgerEntry.perf("bench_x", {"wall_s": 1.0})
        sha, host, bench = entry.run_key().split(":")
        assert sha == (git_sha() or "nogit")[:12]
        assert host == host_fingerprint()
        assert bench == "bench_x"

    def test_perf_key_without_git_or_host(self):
        entry = LedgerEntry("perf", "b", {}, {"git_sha": None})
        assert entry.run_key() == "nogit:nohost:b"


class TestFormat1:
    """Lines written while the run and perf ledgers were separate files."""

    def test_run_line(self, manifest):
        line = {
            "format": 1,
            "experiment": "e2",
            "scalars": {"flips": 7.7},
            "manifest": manifest.to_dict(),
            "version": "1.0.0",
        }
        entry = LedgerEntry.from_dict(line)
        assert (entry.kind, entry.name, entry.scalars) == (
            "run",
            "e2",
            {"flips": 7.7},
        )
        # an absent format field is format 1
        del line["format"]
        assert LedgerEntry.from_dict(line) == entry

    def test_perf_line_flattens_values_and_quantiles(self):
        entry = LedgerEntry.from_dict(
            {
                "format": 1,
                "bench": "b",
                "values": {"wall_s": 2.0},
                "quantiles": {"site.p99": 0.5},
                "git_sha": "abc",
                "host": "h1",
                "created_utc": "2026-01-01T00:00:00+00:00",
                "execution": {},
                "version": "1.0.0",
            }
        )
        assert entry.kind == "perf" and entry.name == "b"
        assert entry.scalars == {"wall_s": 2.0, "site.p99": 0.5}
        assert entry.host == "h1"
        assert entry.run_key() == "abc:h1:b"
        assert entry.created_utc() == "2026-01-01T00:00:00+00:00"

    def test_bad_perf_line_rejected(self):
        with pytest.raises(ValueError, match="values"):
            LedgerEntry.from_dict({"format": 1, "bench": "b"})
        with pytest.raises(ValueError, match="experiment id"):
            LedgerEntry.from_dict({"format": 1, "values": {}})


class TestLedger:
    def test_append_and_read_back(self, tmp_path, manifest):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.record("e2", {"flips": 31.9}, manifest)
        ledger.record("e3", {"uniq": 49.6}, manifest)
        entries = ledger.entries()
        assert [e.name for e in entries] == ["e2", "e3"]
        assert len(ledger) == 2
        assert [e.name for e in ledger] == ["e2", "e3"]

    def test_kinds_share_one_file(self, tmp_path, manifest):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.record("e2", {"flips": 31.9}, manifest)
        ledger.append(LedgerEntry.perf("bench_x", {"wall_s": 1.0}))
        assert [e.name for e in ledger.entries(kind="run")] == ["e2"]
        assert [e.name for e in ledger.entries(kind="perf")] == ["bench_x"]
        assert len(ledger) == 2

    def test_absent_file_is_empty(self, tmp_path):
        assert Ledger(tmp_path / "missing.jsonl").entries() == []

    def test_creates_parent_dirs(self, tmp_path, manifest):
        path = tmp_path / "runs" / "ci" / "ledger.jsonl"
        Ledger(path).record("e2", {"a": 1.0}, manifest)
        assert path.exists()

    def test_corrupt_lines_skipped_and_counted(self, tmp_path, manifest):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.record("e2", {"a": 1.0}, manifest)
        with open(path, "a") as fh:
            fh.write('{"truncated": "by a kill -9\n["not", "an", "object"]\n')
        ledger.record("e3", {"b": 2.0}, manifest)
        assert [e.name for e in ledger.entries()] == ["e2", "e3"]
        assert ledger.n_skipped == 2

    def test_invalid_entry_counted_as_skipped(self, tmp_path, manifest):
        path = tmp_path / "ledger.jsonl"
        with open(path, "w") as fh:
            fh.write('{"format": 2, "kind": "run", "name": "e2"}\n')
        ledger = Ledger(path)
        assert ledger.entries() == []
        assert ledger.n_skipped == 1

    def test_too_deeply_nested_line_skipped_or_named(self, tmp_path, manifest):
        """A line nested past the JSON decoder's recursion limit is one
        skipped line; ``strict`` names it like any other bad line."""
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.record("e2", {"a": 1.0}, manifest)
        with open(path, "a") as fh:
            fh.write("[" * 20_000 + "]" * 20_000 + "\n")
        ledger.record("e3", {"b": 2.0}, manifest)
        assert [e.name for e in ledger.entries()] == ["e2", "e3"]
        assert ledger.n_skipped == 1
        with pytest.raises(
            ValueError, match=r"ledger\.jsonl:2: bad line: .*recursion"
        ):
            ledger.entries(strict=True)

    def test_strict_raises_with_line_number(self, tmp_path, manifest):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.record("e2", {"a": 1.0}, manifest)
        with open(path, "a") as fh:
            fh.write("not json\n")
        with pytest.raises(ValueError, match=r"ledger\.jsonl:2"):
            ledger.entries(strict=True)

    def test_strict_names_the_line_and_the_reason(self, tmp_path, manifest):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.record("e2", {"a": 1.0}, manifest)
        with open(path, "a") as fh:
            fh.write("\n")
            fh.write('{"format": 2, "kind": "run", "name": "e3"}\n')
        with pytest.raises(
            ValueError, match=r"ledger\.jsonl:3: bad line: .*no scalars"
        ):
            ledger.entries(strict=True)

    def test_blank_lines_ignored(self, tmp_path, manifest):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.record("e2", {"a": 1.0}, manifest)
        with open(path, "a") as fh:
            fh.write("\n\n")
        assert len(ledger.entries()) == 1
        assert ledger.n_skipped == 0

    def test_lines_are_single_json_objects(self, tmp_path, manifest):
        path = tmp_path / "ledger.jsonl"
        Ledger(path).record("e2", {"a": 1.0}, manifest)
        (line,) = path.read_text().splitlines()
        rec = json.loads(line)
        assert rec["kind"] == "run" and rec["name"] == "e2"
        assert rec["format"] == LEDGER_FORMAT
        assert isinstance(rec["version"], str) and rec["version"]


class TestMetricSeries:
    def test_run_series_keyed_experiment_dot_key(self, manifest):
        entries = [
            LedgerEntry.collect("e2", {"flips": v}, manifest)
            for v in (1.0, 2.0, 3.0)
        ] + [LedgerEntry.collect("e3", {"uniq": 9.0}, manifest)]
        assert metric_series(entries) == {
            "e2.flips": [1.0, 2.0, 3.0],
            "e3.uniq": [9.0],
        }

    def test_perf_series_keyed_bench_colon_metric(self):
        entries = [perf("b1", {"wall_s": v}, "h1") for v in (1.0, 1.1)]
        entries.append(perf("b2", {"wall_s": 9.0}, "h2"))
        assert metric_series(entries) == {
            "b1:wall_s": [1.0, 1.1],
            "b2:wall_s": [9.0],
        }


class TestBenchPayloadIngest:
    PAYLOAD = {
        "name": "bench_population",
        "values": {"new_s": 0.5, "chips_years_per_s": 5000.0},
        "memory": {"peak_rss_bytes": 1024.0 * 1024},
        "histograms": {
            "batch.sweep": {"p50": 0.01, "p99": 0.05, "mean": 0.02},
            "broken": "not-a-mapping",
        },
    }

    def test_values_memory_and_quantiles_extracted(self):
        entry = entry_from_bench_payload("bench_population", self.PAYLOAD)
        assert entry.kind == "perf" and entry.name == "bench_population"
        # only the recorded quantile labels, never mean/count
        assert entry.scalars == {
            "new_s": 0.5,
            "chips_years_per_s": 5000.0,
            "peak_rss_bytes": 1024.0 * 1024,
            "batch.sweep.p50": 0.01,
            "batch.sweep.p99": 0.05,
        }

    def test_absent_sections_cost_nothing(self):
        entry = entry_from_bench_payload("b", {"values": {"min_s": 0.1}})
        assert entry.scalars == {"min_s": 0.1}

    def test_explicit_rss_value_wins_over_memory_section(self):
        payload = {
            "values": {"peak_rss_bytes": 7.0},
            "memory": {"peak_rss_bytes": 9.0},
        }
        entry = entry_from_bench_payload("b", payload)
        assert entry.scalars["peak_rss_bytes"] == 7.0

    def test_roofline_throughput_ingested(self):
        payload = {"values": {"x": 1.0}, "roofline": {"chips_years_per_s": 3.0}}
        entry = entry_from_bench_payload("b", payload)
        assert entry.scalars == {"x": 1.0, "chips_years_per_s": 3.0}

    def test_service_metrics_ingested_under_prefix(self):
        """A loadgen artefact's flat RED scalars join the ledger series."""
        payload = {
            "values": {"auth_per_s": 12000.0},
            "service": {
                "metrics": {
                    "auth.p99_ms": 1.5,
                    "auth.availability": 1.0,
                    "auth.note": "not-a-number",
                },
            },
        }
        entry = entry_from_bench_payload("loadgen", payload)
        assert entry.scalars == {
            "auth_per_s": 12000.0,
            "service.auth.p99_ms": 1.5,
            "service.auth.availability": 1.0,
        }

    def test_malformed_service_section_ignored(self):
        entry = entry_from_bench_payload(
            "b", {"values": {"x": 1.0}, "service": "broken"}
        )
        assert entry.scalars == {"x": 1.0}

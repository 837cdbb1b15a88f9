"""Command-line runner."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "e2"])
        assert args.experiment == "e2"
        assert args.chips == 50
        assert args.ros == 256

    def test_unknown_experiment_exits_nonzero_with_message(self, capsys):
        code = main(["run", "e99"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown experiment id 'e99'" in err
        assert "e2" in err  # the message lists the valid ids

    def test_unknown_report_experiment_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            # argparse still rejects ids outside its choices up front
            build_parser().parse_args(["report", "--experiments", "e99"])

    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 14)}


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_run_e2_small(self, capsys):
        code = main(["run", "e2", "--chips", "4", "--ros", "32", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E2: response bit flips" in out
        assert "ro-puf" in out and "aro-puf" in out

    def test_run_e3_writes_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "e3.txt"
        code = main(
            ["run", "e3", "--chips", "4", "--ros", "32", "--out", str(out_file)]
        )
        assert code == 0
        assert "inter-chip Hamming distance" in out_file.read_text()

    def test_seed_changes_numbers(self, capsys):
        main(["run", "e3", "--chips", "4", "--ros", "32", "--seed", "1"])
        first = capsys.readouterr().out
        main(["run", "e3", "--chips", "4", "--ros", "32", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_seed_reproducible(self, capsys):
        main(["run", "e8", "--chips", "3", "--ros", "16", "--seed", "9"])
        first = capsys.readouterr().out
        main(["run", "e8", "--chips", "3", "--ros", "16", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestTelemetryFlags:
    def test_trace_prints_span_tree_and_counters(self, capsys):
        code = main(["run", "e3", "--chips", "3", "--ros", "16", "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment.e3" in out
        assert "fabricate.batch_study" in out
        assert "batch.corner_memo_misses" in out

    def test_trace_leaves_no_tracer_installed(self, capsys):
        from repro import telemetry

        main(["run", "e3", "--chips", "3", "--ros", "16", "--trace"])
        assert telemetry.active() is None

    def test_metrics_out_writes_valid_payload(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_manifest

        out = tmp_path / "metrics.json"
        code = main(
            [
                "run",
                "e2",
                "--chips",
                "3",
                "--ros",
                "16",
                "--seed",
                "11",
                "--metrics-out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["spans"], "expected recorded spans"
        assert payload["counters"].get("batch.response_passes", 0) > 0
        validate_manifest(payload["manifest"])
        assert payload["manifest"]["seed"] == 11
        assert payload["manifest"]["config"]["n_chips"] == 3

    def test_profile_records_span_memory(self, capsys):
        code = main(["run", "e3", "--chips", "3", "--ros", "16", "--profile"])
        assert code == 0
        assert "peak=" in capsys.readouterr().out

    def test_tables_unchanged_by_tracing(self, capsys):
        main(["run", "e3", "--chips", "3", "--ros", "16"])
        plain = capsys.readouterr().out
        main(["run", "e3", "--chips", "3", "--ros", "16", "--trace"])
        traced = capsys.readouterr().out
        assert traced.startswith(plain.rstrip("\n").split("\n")[0])
        assert plain.split("── telemetry")[0].strip() in traced

    def test_unknown_id_with_metrics_out_still_cleans_up(self, tmp_path, capsys):
        from repro import telemetry

        out = tmp_path / "m.json"
        code = main(["run", "e99", "--metrics-out", str(out)])
        assert code == 2
        assert telemetry.active() is None

    def test_metrics_out_creates_parent_dirs(self, tmp_path, capsys):
        import json

        out = tmp_path / "deep" / "nested" / "metrics.json"
        code = main(
            ["run", "e3", "--chips", "3", "--ros", "16", "--metrics-out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert isinstance(payload["version"], str) and payload["version"]

    def test_out_creates_parent_dirs(self, tmp_path, capsys):
        out = tmp_path / "deep" / "nested" / "e3.txt"
        code = main(
            ["run", "e3", "--chips", "3", "--ros", "16", "--out", str(out)]
        )
        assert code == 0
        assert "inter-chip Hamming distance" in out.read_text()


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro.telemetry import package_version

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {package_version()}" in capsys.readouterr().out


class TestLedgerAndEvents:
    def test_run_appends_ledger_and_history_renders(self, tmp_path, capsys):
        from repro.telemetry import Ledger

        ledger = tmp_path / "runs" / "ledger.jsonl"  # parent must be created
        for seed in ("1", "2"):
            code = main(
                [
                    "run",
                    "e2",
                    "--chips",
                    "4",
                    "--ros",
                    "32",
                    "--seed",
                    seed,
                    "--ledger",
                    str(ledger),
                ]
            )
            assert code == 0
        entries = Ledger(ledger).entries()
        assert [e.name for e in entries] == ["e2", "e2"]
        assert entries[0].run_key() != entries[1].run_key()  # seeds differ
        assert "ro-puf.flips_at_10y_pct" in entries[0].scalars
        capsys.readouterr()

        assert main(["history", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "e2.ro-puf.flips_at_10y_pct" in out
        assert "latest" in out

    def test_history_metric_filter(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        main(["run", "e2", "--chips", "3", "--ros", "16", "--ledger", str(ledger)])
        capsys.readouterr()
        assert main(["history", "--ledger", str(ledger), "--metric", "aro-puf"]) == 0
        out = capsys.readouterr().out
        assert "e2.aro-puf.flips_at_10y_pct" in out
        assert "e2.ro-puf.flips_at_10y_pct" not in out

    def test_history_empty_ledger(self, tmp_path, capsys):
        assert main(["history", "--ledger", str(tmp_path / "none.jsonl")]) == 0
        assert "empty ledger" in capsys.readouterr().out

    def test_events_lifecycle_and_cleanup(self, tmp_path, capsys):
        import json

        from repro import telemetry

        events = tmp_path / "deep" / "events.jsonl"  # parent must be created
        code = main(
            ["run", "e2", "--chips", "3", "--ros", "16", "--events", str(events)]
        )
        assert code == 0
        assert telemetry.active_emitter() is None
        records = [json.loads(line) for line in events.read_text().splitlines()]
        assert records[0]["event"] == "run.start"
        assert records[0]["experiment"] == "e2"
        assert records[-1]["event"] == "run.end"

    def test_report_records_every_experiment(self, tmp_path, capsys):
        from repro.telemetry import Ledger

        ledger = tmp_path / "ledger.jsonl"
        code = main(
            [
                "report",
                "--experiments",
                "e2",
                "e3",
                "--chips",
                "3",
                "--ros",
                "16",
                "--path",
                str(tmp_path / "REPORT.md"),
                "--ledger",
                str(ledger),
            ]
        )
        assert code == 0
        entries = Ledger(ledger).entries()
        assert [e.name for e in entries] == ["e2", "e3"]
        # one CLI invocation -> one manifest -> one shared run key
        assert len({e.run_key() for e in entries}) == 1


class TestCheckAnchors:
    @staticmethod
    def synthetic_ledger(path, scalars_by_experiment):
        from repro.telemetry import Ledger, RunManifest

        manifest = RunManifest.collect(seed=1, config={"synthetic": True})
        ledger = Ledger(path)
        for experiment, scalars in scalars_by_experiment.items():
            ledger.record(experiment, scalars, manifest)
        return ledger

    PAPER_PERFECT = {
        "e2": {
            "ro-puf.flips_at_10y_pct": 32.0,
            "aro-puf.flips_at_10y_pct": 7.7,
            "improvement_factor_10y": 4.16,
        },
        "e3": {
            "ro-puf.uniqueness_pct": 45.0,
            "aro-puf.uniqueness_pct": 49.67,
        },
        "e4": {"aro-puf.uniformity_pct": 50.0},
    }

    @staticmethod
    def from_ledger(path, *extra):
        return main(["check-anchors", "--from-ledger", str(path), *extra])

    def test_perfect_ledger_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self.synthetic_ledger(path, self.PAPER_PERFECT)
        assert self.from_ledger(path) == 0
        out = capsys.readouterr().out
        assert "worst status: pass" in out

    def test_out_of_band_exits_one(self, tmp_path, capsys):
        bad = {k: dict(v) for k, v in self.PAPER_PERFECT.items()}
        bad["e2"]["aro-puf.flips_at_10y_pct"] = 31.0  # conventional-like aging
        path = tmp_path / "ledger.jsonl"
        self.synthetic_ledger(path, bad)
        assert self.from_ledger(path) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "aro-flips-10y" in out

    def test_warn_band_still_passes(self, tmp_path, capsys):
        warm = {k: dict(v) for k, v in self.PAPER_PERFECT.items()}
        # between tol_pass (2.5) and tol_fail (8.0) of the 45% anchor
        warm["e3"]["ro-puf.uniqueness_pct"] = 41.0
        path = tmp_path / "ledger.jsonl"
        self.synthetic_ledger(path, warm)
        assert self.from_ledger(path) == 0
        out = capsys.readouterr().out
        assert "WARN" in out and "worst status: warn" in out

    def test_latest_entry_wins(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        bad = {k: dict(v) for k, v in self.PAPER_PERFECT.items()}
        bad["e2"]["aro-puf.flips_at_10y_pct"] = 31.0
        self.synthetic_ledger(path, bad)
        self.synthetic_ledger(path, self.PAPER_PERFECT)  # newer, in band
        assert self.from_ledger(path) == 0

    def test_missing_metric_needs_require_all(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self.synthetic_ledger(path, {"e2": self.PAPER_PERFECT["e2"]})
        assert self.from_ledger(path) == 0
        assert self.from_ledger(path, "--require-all") == 1

    def test_missing_ledger_is_usage_error(self, tmp_path, capsys):
        assert self.from_ledger(tmp_path / "none.jsonl") == 2
        captured = capsys.readouterr()
        assert "no such ledger" in captured.err
        assert "worst status" not in captured.out

    def test_empty_ledger_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert self.from_ledger(path) == 2
        assert "no ledger entries" in capsys.readouterr().err

    def test_perf_only_ledger_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "perf.jsonl"
        synthetic_perf_ledger(path, [1.0, 1.1])
        assert self.from_ledger(path, "--require-all") == 2
        assert "no ledger entries" in capsys.readouterr().err

    def test_perturbed_mission_fails_fresh_run(self, capsys):
        # a PUF evaluated 1% of the time ages like a conventional design:
        # the ARO flip-rate anchor must leave its band and fail the check
        code = main(
            ["check-anchors", "--chips", "4", "--ros", "16", "--eval-duty", "1e-2"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_fresh_run_records_to_ledger(self, tmp_path, capsys):
        from repro.telemetry import ANCHOR_EXPERIMENTS, Ledger

        ledger = tmp_path / "ledger.jsonl"
        main(
            [
                "check-anchors",
                "--chips",
                "3",
                "--ros",
                "16",
                "--ledger",
                str(ledger),
            ]
        )
        entries = Ledger(ledger).entries()
        assert [e.name for e in entries] == list(ANCHOR_EXPERIMENTS)


class TestParallelAndCache:
    """The --jobs and --cache execution flags."""

    SCALE = ["--chips", "5", "--ros", "16", "--seed", "3"]

    def test_jobs_output_identical_to_serial(self, capsys):
        assert main(["run", "e3", *self.SCALE]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "e3", *self.SCALE, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_jobs_zero_rejected_helpfully(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "e3", *self.SCALE, "--jobs", "0"])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_jobs_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "e3", *self.SCALE, "--jobs", "two"])
        assert "positive integer" in capsys.readouterr().err

    def test_jobs_recorded_in_manifest(self, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        main(["run", "e3", *self.SCALE, "--jobs", "2", "--metrics-out", str(out)])
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["jobs"] == 2
        assert manifest["cache"] is None
        # jobs must NOT leak into the ledger-digested config
        assert "jobs" not in manifest["config"]

    def test_cache_two_pass_hits_and_scalars_identical(self, tmp_path, capsys):
        import json

        cache_dir = tmp_path / "cache"
        ledger = tmp_path / "ledger.jsonl"
        argv = ["run", "e3", *self.SCALE, "--cache", str(cache_dir),
                "--ledger", str(ledger)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache hit" not in first
        assert "0 hit(s), 1 miss(es)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hit: e3" in second
        assert "1 hit(s), 0 miss(es)" in second
        entries = [json.loads(l) for l in ledger.read_text().splitlines()]
        assert len(entries) == 2
        assert entries[0]["scalars"] == entries[1]["scalars"]

    def test_cache_summary_in_manifest(self, tmp_path, capsys):
        import json

        cache_dir = tmp_path / "cache"
        argv = ["run", "e3", *self.SCALE, "--cache", str(cache_dir)]
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        main([*argv, "--metrics-out", str(m1)])
        main([*argv, "--metrics-out", str(m2)])
        capsys.readouterr()
        first = json.loads(m1.read_text())["manifest"]["cache"]
        second = json.loads(m2.read_text())["manifest"]["cache"]
        assert first == {"dir": str(cache_dir), "hits": [], "misses": ["e3"]}
        assert second == {"dir": str(cache_dir), "hits": ["e3"], "misses": []}

    def test_cache_hit_faithful_tables(self, tmp_path, capsys):
        """A hit renders the same table text the computing pass printed."""
        cache_dir = tmp_path / "cache"
        argv = ["run", "e3", *self.SCALE, "--cache", str(cache_dir)]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        table = first.split("\ncache:")[0]
        assert table in second

    def test_corrupted_cache_recomputes_with_warning(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["run", "e3", *self.SCALE, "--cache", str(cache_dir)]
        main(argv)
        capsys.readouterr()
        for pkl in cache_dir.glob("*.pkl"):
            pkl.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="unusable"):
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache hit" not in out
        assert "inter-chip Hamming distance" in out

    def test_check_anchors_supports_cache(self, tmp_path, capsys):
        from repro.telemetry import ANCHOR_EXPERIMENTS

        cache_dir = tmp_path / "cache"
        argv = ["check-anchors", "--chips", "3", "--ros", "16",
                "--cache", str(cache_dir)]
        main(argv)
        capsys.readouterr()
        main(argv)
        out = capsys.readouterr().out
        for key in ANCHOR_EXPERIMENTS:
            assert f"cache hit: {key}" in out


class TestExplain:
    """The forensics `explain` subcommand."""

    SCALE = ["--chips", "4", "--ros", "16", "--seed", "3"]

    def test_prints_summary_and_bit_tables(self, capsys):
        assert main(["explain", *self.SCALE]) == 0
        out = capsys.readouterr().out
        assert "Margin forensics" in out
        assert "recall" in out
        assert "thinnest margins" in out
        assert "ro-puf" in out and "aro-puf" in out

    def test_single_design_filter(self, capsys):
        assert main(["explain", *self.SCALE, "--design", "aro-puf"]) == 0
        out = capsys.readouterr().out
        assert "aro-puf: chip" in out
        assert "\nro-puf: chip" not in out

    def test_json_export_schema(self, tmp_path, capsys):
        import json

        out = tmp_path / "explain.json"
        assert main(["explain", *self.SCALE, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "explain"
        assert set(payload["designs"]) == {"ro-puf", "aro-puf"}
        for block in payload["designs"].values():
            assert 0.0 <= block["forecast"]["recall"] <= 1.0
            assert block["chip"]["bits"]

    def test_heatmap_per_design_suffixing(self, tmp_path, capsys):
        assert (
            main(["explain", *self.SCALE, "--heatmap", str(tmp_path / "m.ppm")])
            == 0
        )
        assert (tmp_path / "m-ro-puf.ppm").read_bytes().startswith(b"P6\n")
        assert (tmp_path / "m-aro-puf.ppm").read_bytes().startswith(b"P6\n")

    def test_heatmap_exact_path_for_single_design(self, tmp_path, capsys):
        assert (
            main(
                ["explain", *self.SCALE, "--design", "ro-puf",
                 "--heatmap", str(tmp_path / "m.ppm")]
            )
            == 0
        )
        assert (tmp_path / "m.ppm").exists()

    def test_ledger_records_e13(self, tmp_path, capsys):
        from repro.telemetry import Ledger

        ledger = tmp_path / "ledger.jsonl"
        assert main(["explain", *self.SCALE, "--ledger", str(ledger)]) == 0
        entries = Ledger(ledger).entries()
        assert [e.name for e in entries] == ["e13"]
        assert "aro-puf.forecast_recall" in entries[0].scalars

    def test_jobs_output_identical_to_serial(self, capsys):
        assert main(["explain", *self.SCALE]) == 0
        serial = capsys.readouterr().out
        assert main(["explain", *self.SCALE, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_run_e13_registered(self, capsys):
        assert main(["run", "e13", *self.SCALE]) == 0
        out = capsys.readouterr().out
        assert "Margin forensics" in out

    def test_no_collector_or_emitter_left_installed(self, capsys):
        from repro import telemetry
        from repro.forensics.hook import active_collector

        main(["explain", *self.SCALE])
        assert active_collector() is None
        assert telemetry.active_emitter() is None


class TestVersionIdentity:
    """--version carries the perf-ledger host identity."""

    def test_version_includes_numpy_and_platform_triple(self, capsys):
        import numpy

        from repro.telemetry import host_fingerprint, platform_triple

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"numpy {numpy.__version__}" in out
        assert platform_triple() in out
        assert f"host {host_fingerprint()}" in out


def synthetic_perf_ledger(path, series, bench="bench_x", metric="wall_s"):
    """Append one entry per value, all stamped with this host."""
    from repro.telemetry import Ledger, LedgerEntry

    ledger = Ledger(path)
    for value in series:
        ledger.append(LedgerEntry.perf(bench, {metric: value}))
    return ledger


class TestStoreDir:
    SCALE = ["run", "e2", "--chips", "4", "--ros", "16"]

    def test_two_designs_share_one_dir_and_reattach(self, tmp_path, capsys):
        import json

        assert main(self.SCALE) == 0
        ram = capsys.readouterr().out
        store_dir = tmp_path / "store"
        store = ["--store", "mmap", "--store-dir", str(store_dir)]
        counters = []
        for i in (1, 2):
            metrics = tmp_path / f"m{i}.json"
            assert main([*self.SCALE, *store, "--metrics-out", str(metrics)]) == 0
            assert capsys.readouterr().out == (
                ram + f"metrics written to {metrics}\n"
            )
            counters.append(json.loads(metrics.read_text())["counters"])
        assert sorted(p.name for p in store_dir.iterdir()) == [
            "aro-puf",
            "ro-puf",
        ]
        # the second run re-attached every block the first fabricated
        assert counters[0]["store.blocks_materialised"] > 0
        assert "store.blocks_materialised" not in counters[1]

    def test_different_population_is_refused(self, tmp_path, capsys):
        store = ["--store", "mmap", "--store-dir", str(tmp_path / "store")]
        assert main([*self.SCALE, *store]) == 0
        with pytest.raises(ValueError, match="different population"):
            main([*self.SCALE, *store, "--seed", "9"])


class TestPerfGate:
    """The acceptance-criterion exit codes: an injected 20 % regression
    exits non-zero, jitter within the noise floor exits zero."""

    STABLE = [1.00, 1.01, 0.99, 1.00, 1.02, 1.01]

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        ledger = tmp_path / "perf.jsonl"
        synthetic_perf_ledger(ledger, self.STABLE + [1.20])  # +20 % wall
        code = main(["perf", "gate", "--perf-ledger", str(ledger)])
        assert code == 1
        out = capsys.readouterr().out
        assert "<< REGRESSION" in out
        assert "bench_x:wall_s" in out
        assert "1 confirmed regression(s)" in out

    def test_jitter_within_noise_floor_exits_zero(self, tmp_path, capsys):
        ledger = tmp_path / "perf.jsonl"
        synthetic_perf_ledger(ledger, self.STABLE + [1.015])  # ~1 % jitter
        code = main(["perf", "gate", "--perf-ledger", str(ledger)])
        assert code == 0
        assert "no confirmed regressions" in capsys.readouterr().out

    def test_throughput_drop_gates_and_improvement_does_not(
        self, tmp_path, capsys
    ):
        drop = tmp_path / "drop.jsonl"
        synthetic_perf_ledger(
            drop, [100.0, 101.0, 99.0, 100.0, 102.0, 101.0, 80.0],
            metric="chips_years_per_s",
        )
        assert main(["perf", "gate", "--perf-ledger", str(drop)]) == 1
        capsys.readouterr()
        rise = tmp_path / "rise.jsonl"
        synthetic_perf_ledger(
            rise, [100.0, 101.0, 99.0, 100.0, 102.0, 101.0, 130.0],
            metric="chips_years_per_s",
        )
        assert main(["perf", "gate", "--perf-ledger", str(rise)]) == 0
        assert "improve" in capsys.readouterr().out

    def test_three_run_ledger_never_fires(self, tmp_path, capsys):
        """Warm-up: too little history for a noise estimate, even with a
        huge apparent regression."""
        ledger = tmp_path / "perf.jsonl"
        synthetic_perf_ledger(ledger, [1.0, 1.0, 5.0])
        assert main(["perf", "gate", "--perf-ledger", str(ledger)]) == 0
        assert "warmup" in capsys.readouterr().out

    def test_unoriented_experiment_scalars_never_gate(self, tmp_path, capsys):
        ledger = tmp_path / "perf.jsonl"
        synthetic_perf_ledger(
            ledger, self.STABLE + [2.0], metric="flips_pct"
        )
        assert main(["perf", "gate", "--perf-ledger", str(ledger)]) == 0
        assert "shift" in capsys.readouterr().out

    def test_empty_ledger_exits_zero(self, tmp_path, capsys):
        code = main(
            ["perf", "gate", "--perf-ledger", str(tmp_path / "none.jsonl")]
        )
        assert code == 0
        assert "nothing to judge" in capsys.readouterr().out

    def test_host_filter_this_ignores_foreign_appends(self, tmp_path, capsys):
        """A laptop's regression must not fire a CI gate when the gate
        pins --host this."""
        import dataclasses

        from repro.telemetry import LedgerEntry

        ledger = tmp_path / "perf.jsonl"
        synthetic_perf_ledger(ledger, self.STABLE + [1.0])
        foreign = LedgerEntry.perf("bench_x", {"wall_s": 9.9})
        foreign = dataclasses.replace(
            foreign, manifest={**foreign.manifest, "host": "laptop-fp"}
        )
        synthetic_perf_ledger(ledger, []).append(foreign)
        assert (
            main(
                ["perf", "gate", "--perf-ledger", str(ledger),
                 "--host", "this"]
            )
            == 0
        )


class TestPerfHistory:
    def test_renders_sparkline_and_verdict(self, tmp_path, capsys):
        ledger = tmp_path / "perf.jsonl"
        synthetic_perf_ledger(
            ledger, [1.00, 1.01, 0.99, 1.00, 1.02, 1.01, 1.20]
        )
        assert main(["perf", "history", "--perf-ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "bench_x:wall_s" in out
        assert "<< regress" in out
        assert "vs median[6]" in out
        assert "1 metric(s) moved" in out

    def test_metric_filter(self, tmp_path, capsys):
        from repro.telemetry import Ledger, LedgerEntry

        ledger = Ledger(tmp_path / "perf.jsonl")
        ledger.append(
            LedgerEntry.perf("bench_x", {"wall_s": 1.0, "peak_rss_bytes": 100.0})
        )
        assert (
            main(
                ["perf", "history", "--perf-ledger", str(ledger.path),
                 "--metric", "rss"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "peak_rss_bytes" in out
        assert "wall_s" not in out

    def test_empty_ledger(self, tmp_path, capsys):
        assert (
            main(
                ["perf", "history", "--perf-ledger",
                 str(tmp_path / "none.jsonl")]
            )
            == 0
        )
        assert "empty ledger" in capsys.readouterr().out


class TestOneVerdict:
    """``perf history``, ``perf gate`` and ``perf report`` give every
    metric the same verdict, also under the ``--host``/``--metric``
    filters and with a foreign host's entry in the file."""

    @staticmethod
    def ledger(tmp_path):
        import dataclasses

        from repro.telemetry import Ledger, LedgerEntry

        quiet = [1.00, 1.01, 0.99, 1.00, 1.02, 1.01]
        ledger = Ledger(tmp_path / "perf.jsonl")
        for i, last in enumerate(quiet + [None]):
            ledger.append(
                LedgerEntry.perf(
                    "bench_x",
                    {
                        "wall_s": 1.3 if last is None else last,
                        "chips_years_per_s": 130.0 if last is None else 100 * last,
                        "flips_pct": 2.0 if last is None else last,
                        "peak_rss_bytes": 100.0,
                    },
                )
            )
            if i == 3:
                foreign = LedgerEntry.perf("bench_x", {"wall_s": 9.9})
                ledger.append(
                    dataclasses.replace(
                        foreign,
                        manifest={**foreign.manifest, "host": "laptop-fp"},
                    )
                )
        for value in (1.0, 1.0, 5.0):
            ledger.append(LedgerEntry.perf("bench_y", {"wall_s": value}))
        return ledger.path

    @staticmethod
    def history_verdicts(out):
        verdicts = {}
        for line in out.splitlines():
            if "  latest " not in line:
                continue
            verdict = "stable"
            if "(warmup)" in line:
                verdict = "warmup"
            elif "<< " in line:
                verdict = line.rsplit("<< ", 1)[1]
            verdicts[line.split()[0]] = verdict
        return verdicts

    @staticmethod
    def gate_verdicts(out):
        return {
            metric: rest.split()[0]
            for metric, rest in (
                line.split(": ", 1)
                for line in out.splitlines()
                if not line.startswith("perf gate:")
            )
        }

    @staticmethod
    def html_verdicts(text):
        import re

        return dict(
            re.findall(
                r'<tr><td>([^<]+)</td>.*?<td class="([a-z]+)">[a-z]+</td></tr>',
                text,
            )
        )

    @pytest.mark.parametrize(
        "filters",
        [
            ["--host", "this"],
            ["--host", "this", "--metric", "wall"],
            ["--metric", "bench_x"],
        ],
    )
    def test_history_gate_and_report_agree(self, tmp_path, capsys, filters):
        path = self.ledger(tmp_path)
        common = ["--perf-ledger", str(path), *filters]
        assert main(["perf", "history", *common]) == 0
        history = self.history_verdicts(capsys.readouterr().out)
        code = main(["perf", "gate", *common])
        gate = self.gate_verdicts(capsys.readouterr().out)
        html_out = tmp_path / "report.html"
        assert main(["perf", "report", *common, "--html", str(html_out)]) == 0
        report = self.html_verdicts(html_out.read_text())
        assert history and history == gate == report
        assert code == (1 if "regress" in gate.values() else 0)
        if filters == ["--host", "this"]:
            assert history == {
                "bench_x:chips_years_per_s": "improve",
                "bench_x:flips_pct": "shift",
                "bench_x:peak_rss_bytes": "stable",
                "bench_x:wall_s": "regress",
                "bench_y:wall_s": "warmup",
            }


class TestTrendOptionValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["perf", "history", "--perf-ledger", "p.jsonl", "--last", "0"],
            ["perf", "history", "--perf-ledger", "p.jsonl", "--last", "-3"],
            ["history", "--ledger", "r.jsonl", "--last", "0"],
            ["history", "--ledger", "r.jsonl", "--window", "0"],
            ["history", "--ledger", "r.jsonl", "--threshold", "0"],
        ],
    )
    def test_non_positive_values_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive" in capsys.readouterr().err


class TestPerfFlame:
    def run_traced(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        assert (
            main(
                ["run", "e2", "--chips", "3", "--ros", "16",
                 "--trace-out", str(trace)]
            )
            == 0
        )
        capsys.readouterr()
        return trace

    def test_collapsed_output_validates(self, tmp_path, capsys):
        import sys as _sys

        _sys.path.insert(0, "tools")
        try:
            import validate_metrics
        finally:
            _sys.path.pop(0)
        trace = self.run_traced(tmp_path, capsys)
        out = tmp_path / "flame.txt"
        code = main(
            ["perf", "flame", "--trace", str(trace), "--out", str(out)]
        )
        assert code == 0
        assert "collapsed stacks written" in capsys.readouterr().out
        text = out.read_text()
        assert validate_metrics.validate_collapsed_stacks(text) == []
        assert any(
            line.startswith("coordinator;") for line in text.splitlines()
        )

    def test_stdout_mode_and_critical_path(self, tmp_path, capsys):
        trace = self.run_traced(tmp_path, capsys)
        code = main(
            ["perf", "flame", "--trace", str(trace), "--critical-path"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment.e2" in out
        assert "critical path" in out

    def test_missing_and_malformed_trace_exit_2(self, tmp_path, capsys):
        assert (
            main(["perf", "flame", "--trace", str(tmp_path / "no.json")])
            == 2
        )
        assert "no trace file" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["perf", "flame", "--trace", str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().err


class TestPerfReport:
    def test_writes_html_with_trends_and_attribution(self, tmp_path, capsys):
        ledger = tmp_path / "perf.jsonl"
        synthetic_perf_ledger(ledger, [1.0, 1.01, 0.99, 1.0, 1.02, 1.2])
        trace = tmp_path / "run.trace.json"
        main(
            ["run", "e2", "--chips", "3", "--ros", "16",
             "--trace-out", str(trace)]
        )
        capsys.readouterr()
        html_out = tmp_path / "perf.html"
        code = main(
            ["perf", "report", "--perf-ledger", str(ledger),
             "--html", str(html_out), "--trace", str(trace)]
        )
        assert code == 0
        text = html_out.read_text()
        assert "bench_x:wall_s" in text
        assert "Self-time attribution" in text
        assert "experiment.e2" in text


class TestMonitorTruncation:
    def test_follow_exits_cleanly_when_file_truncates(
        self, tmp_path, capsys, monkeypatch
    ):
        """A rotated/truncated events file must end the tail loop with
        exit 0, not hang at a stale offset forever."""
        import json as _json
        import time as _time

        events = tmp_path / "events.jsonl"
        lines = [
            {"format": 1, "event": "run.start", "experiment": "e2",
             "t": 0.0},
            {"format": 1, "event": "progress", "stage": "sweep", "done": 1,
             "total": 4, "t": 0.5},
        ]
        events.write_text(
            "".join(_json.dumps(line) + "\n" for line in lines)
        )

        def truncate_instead_of_sleeping(_seconds):
            events.write_text("")  # the run rotated the file under us

        monkeypatch.setattr(_time, "sleep", truncate_instead_of_sleeping)
        code = main(
            ["monitor", "--events", str(events), "--follow",
             "--interval", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "truncated; stopping" in out


class TestEmitterCleanupOnFailure:
    """Satellite audit: the emitter must be uninstalled (and its file
    flushed) no matter how the run ends."""

    def test_experiment_crash_flushes_events_and_uninstalls(
        self, tmp_path, capsys, monkeypatch
    ):
        import dataclasses
        import json

        from repro import cli, telemetry

        def boom(*args, **kwargs):
            raise RuntimeError("mid-run crash")

        monkeypatch.setitem(
            cli.EXPERIMENTS,
            "e2",
            dataclasses.replace(cli.EXPERIMENTS["e2"], run=boom),
        )
        events = tmp_path / "events.jsonl"
        with pytest.raises(RuntimeError, match="mid-run crash"):
            main(
                ["run", "e2", "--chips", "3", "--ros", "16",
                 "--events", str(events)]
            )
        assert telemetry.active_emitter() is None
        records = [json.loads(l) for l in events.read_text().splitlines()]
        assert records[0]["event"] == "run.start"
        assert records[-1]["event"] == "run.end"  # flushed by the finally

    def test_lifecycle_write_failure_still_uninstalls(
        self, tmp_path, capsys, monkeypatch
    ):
        """A raising run-end heartbeat must not leave the emitter stuck
        (a stuck emitter poisons every later install)."""
        from repro import telemetry

        def broken_lifecycle(self, event, **fields):
            raise OSError("disk full")

        monkeypatch.setattr(
            telemetry.ProgressEmitter, "lifecycle", broken_lifecycle
        )
        with pytest.raises(OSError, match="disk full"):
            main(
                ["run", "e3", "--chips", "3", "--ros", "16",
                 "--events", str(tmp_path / "events.jsonl")]
            )
        assert telemetry.active_emitter() is None
        # and the slot is immediately reusable
        telemetry.install_emitter(
            telemetry.ProgressEmitter(tmp_path / "again.jsonl")
        )
        telemetry.uninstall_emitter()


class TestServeAndLoadgen:
    """The fleet-service observatory: loadgen artefacts and SLO gating."""

    def _loadgen(self, *extra):
        return main(
            ["loadgen", "--chips", "2", "--requests", "30",
             "--concurrency", "2", "--seed", "3", "--slo-gate", "off",
             *extra]
        )

    def test_loadgen_smoke_writes_service_artefact(self, tmp_path, capsys):
        import json

        out = tmp_path / "loadgen.json"
        assert self._loadgen("--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "loadgen: 30 requests" in stdout
        assert f"loadgen artefact written to {out}" in stdout
        payload = json.loads(out.read_text())
        assert payload["values"]["auth_per_s"] > 0
        service = payload["service"]
        auth = service["red"]["endpoints"]["auth"]
        assert auth["requests"] == 30
        assert 0.0 <= auth["availability"] <= 1.0
        assert service["metrics"]["auth.p99_ms"] >= 0.0

    def test_slo_gate_enforce_fails_on_injected_latency(self, capsys):
        """The ISSUE acceptance hook: a latency regression must turn the
        enforced gate into a non-zero exit."""
        code = main(
            ["loadgen", "--chips", "2", "--requests", "12",
             "--concurrency", "4", "--seed", "3",
             "--inject-latency-ms", "80", "--slo-gate", "enforce"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "slo worst status: fail (gate: enforce)" in out
        assert "auth-p99-latency" in out

    def test_slo_gate_informational_reports_without_failing(self, capsys):
        code = main(
            ["loadgen", "--chips", "2", "--requests", "12",
             "--concurrency", "4", "--seed", "3",
             "--inject-latency-ms", "80", "--slo-gate", "informational"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slo worst status: fail (gate: informational)" in out

    def test_bad_slo_spec_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "slo.json"
        spec.write_text('{"not": "a spec"}')
        code = self._loadgen("--slo-spec", str(spec))
        assert code == 2
        assert "bad SLO spec" in capsys.readouterr().err

    def test_trace_out_parks_requests_on_recycled_lanes(
        self, tmp_path, capsys
    ):
        import json

        trace = tmp_path / "loadgen.trace.json"
        assert self._loadgen("--trace-out", str(trace)) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        lanes = {
            e["args"]["name"]: e["tid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        req_tids = {
            tid for name, tid in lanes.items() if name.startswith("req-")
        }
        # two workers -> at most two recycled lanes, never one per request
        assert 1 <= len(req_tids) <= 2
        request_spans = [
            e for e in events
            if e["ph"] == "X" and e["name"].startswith("request.")
        ]
        # 30 load requests + one enrollment per chip, all on req lanes
        assert len(request_spans) == 32
        by_name = {e["name"] for e in request_spans}
        assert by_name == {"request.enroll", "request.auth"}
        assert {e["tid"] for e in request_spans} <= req_tids

    def test_perf_ledger_ingests_service_metrics(self, tmp_path, capsys):
        from repro import telemetry

        ledger_path = tmp_path / "perf.jsonl"
        assert self._loadgen("--perf-ledger", str(ledger_path)) == 0
        (entry,) = telemetry.Ledger(ledger_path).entries(kind="perf")
        assert entry.name == "loadgen"
        assert entry.scalars["auth_per_s"] > 0
        assert "service.auth.availability" in entry.scalars
        assert "service.auth.p99_ms" in entry.scalars

    def test_events_heartbeats_with_rotation_cap(self, tmp_path, capsys):
        import json

        events = tmp_path / "events.jsonl"
        code = self._loadgen(
            "--events", str(events), "--events-max-bytes", "65536"
        )
        assert code == 0
        recs = [json.loads(l) for l in events.read_text().splitlines()]
        assert recs[0]["event"] == "run.start"
        assert recs[0]["command"] == "loadgen"
        assert recs[-1]["event"] == "run.end"
        # heartbeats are throttled, so a sub-interval run may emit none;
        # any that land must come from the loadgen stages
        stages = {r["stage"] for r in recs if "stage" in r}
        assert stages <= {"loadgen.enroll", "loadgen.requests"}

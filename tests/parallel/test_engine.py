"""Sharded evaluation (``jobs > 1``): bit-identity, telemetry folding,
lifecycle.

The determinism tests are the PR's acceptance criterion: responses,
frequencies and aging deltas must be bit-identical to the serial engine
for any worker count, including counts that do not divide the chip
count.  They run at deliberately small scale (tiny designs, few chips)
so the full matrix stays cheap even though every case spins up a real
process pool.
"""

import numpy as np
import pytest

from repro import aro_design, conventional_design
from repro.core.population import make_batch_study
from repro.environment.conditions import OperatingConditions, celsius
from repro import telemetry
from repro.telemetry.events import emitter_session

DESIGN = aro_design(n_ros=16, n_stages=3)
SEED = 987


@pytest.fixture(scope="module")
def serial_8():
    return make_batch_study(DESIGN, 8, rng=SEED)


@pytest.fixture(scope="module")
def serial_7():
    return make_batch_study(DESIGN, 7, rng=SEED)


class TestBitIdentity:
    @pytest.mark.parametrize("jobs", [2, 4])
    @pytest.mark.parametrize("t", [0.0, 10.0])
    def test_divisible_chip_count(self, serial_8, jobs, t):
        with make_batch_study(DESIGN, 8, rng=SEED, jobs=jobs) as par:
            assert np.array_equal(
                serial_8.responses(t_years=t), par.responses(t_years=t)
            )
            assert np.array_equal(
                serial_8.frequencies(t_years=t), par.frequencies(t_years=t)
            )

    @pytest.mark.parametrize("jobs", [2, 4])
    @pytest.mark.parametrize("t", [0.0, 10.0])
    def test_non_divisible_chip_count(self, serial_7, jobs, t):
        with make_batch_study(DESIGN, 7, rng=SEED, jobs=jobs) as par:
            assert np.array_equal(
                serial_7.responses(t_years=t), par.responses(t_years=t)
            )
            assert np.array_equal(
                serial_7.frequencies(t_years=t), par.frequencies(t_years=t)
            )

    def test_corner_conditions(self, serial_7):
        """Identity holds off-nominal too (temperature + supply corner)."""
        cond = OperatingConditions(temperature_k=celsius(85.0), vdd=1.1)
        with make_batch_study(DESIGN, 7, rng=SEED, jobs=3) as par:
            assert np.array_equal(
                serial_7.frequencies(5.0, cond), par.frequencies(5.0, cond)
            )

    def test_aging_deltas_identical(self, serial_7):
        """The derived quantity the paper gates on: fresh-vs-aged flips."""
        with make_batch_study(DESIGN, 7, rng=SEED, jobs=2) as par:
            flips_serial = serial_7.responses() != serial_7.responses(
                t_years=10.0
            )
            flips_par = par.responses() != par.responses(t_years=10.0)
            assert np.array_equal(flips_serial, flips_par)

    def test_conventional_design_too(self):
        design = conventional_design(n_ros=16, n_stages=3)
        serial = make_batch_study(design, 5, rng=SEED)
        with make_batch_study(design, 5, rng=SEED, jobs=2) as par:
            assert np.array_equal(serial.responses(), par.responses())


class TestFactoryAndLifecycle:
    def test_jobs_one_returns_serial_engine(self):
        study = make_batch_study(DESIGN, 4, rng=SEED, jobs=1)
        assert study.jobs == 1 and study._executor is None
        study.close()  # serial close is a no-op but must exist

    def test_jobs_zero_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            make_batch_study(DESIGN, 4, rng=SEED, jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            make_batch_study(DESIGN, 4, rng=SEED, jobs=0, store="mmap")

    def test_jobs_clamped_to_chips(self):
        with make_batch_study(DESIGN, 3, rng=SEED, jobs=8) as par:
            assert par.jobs == 3
            assert par.responses().shape == (3, DESIGN.n_bits)

    def test_geometry(self):
        with make_batch_study(DESIGN, 5, rng=SEED, jobs=2) as par:
            assert par.n_chips == 5
            assert par.n_bits == DESIGN.n_bits

    def test_close_idempotent_and_restartable(self):
        par = make_batch_study(DESIGN, 4, rng=SEED, jobs=2)
        first = par.responses()
        par.close()
        par.close()
        # the pool comes back lazily after close
        assert np.array_equal(par.responses(), first)
        par.close()

    def test_frequency_memo(self):
        with make_batch_study(DESIGN, 4, rng=SEED, jobs=2) as par:
            a = par.frequencies(5.0)
            b = par.frequencies(5.0)
            assert a is b
            assert not a.flags.writeable


class TestTelemetryFolding:
    def test_worker_digest_folds_into_parent(self):
        """Worker counters and span summaries land in the parent tracer."""
        with telemetry.session() as tracer:
            with make_batch_study(DESIGN, 6, rng=SEED, jobs=2) as par:
                par.responses()
        assert tracer.counters.get("parallel.shards_completed") == 2
        # worker-side fabrication counters were folded in
        assert tracer.counters.get("parallel.shard_cache_misses") == 2
        names = set()
        stack = list(tracer.roots)
        while stack:
            span = stack.pop()
            names.add(span.name)
            stack.extend(span.children)
        assert "parallel.evaluate" in names
        assert "parallel.shard" in names
        assert "parallel.fabricate_shard" in names

    def test_merged_progress_stream(self, tmp_path):
        """One parallel.shards heartbeat stream, emitted coordinator-side."""
        events = tmp_path / "events.jsonl"
        with emitter_session(events, min_interval_s=0.0):
            with make_batch_study(DESIGN, 6, rng=SEED, jobs=2) as par:
                par.responses()
        import json

        lines = [json.loads(l) for l in events.read_text().splitlines()]
        shards = [e for e in lines if e.get("stage") == "parallel.shards"]
        assert shards, "no merged shard progress was emitted"
        assert shards[0]["done"] == 0
        assert shards[-1]["done"] == 6
        assert all(e["total"] == 6 for e in shards)

    def test_workers_do_not_write_parent_events(self, tmp_path):
        """Fork-inherited emitters are severed in the pool initializer.

        If a worker kept the parent's emitter, its kernel heartbeats
        (``batch.frequencies``, ``aging.sample_prefactors``) would
        interleave into the coordinator's file with shard-local totals.
        The file must contain only coordinator-side stages, and every
        line must parse (no torn interleaved writes).
        """
        import json

        events = tmp_path / "events.jsonl"
        with emitter_session(events, min_interval_s=0.0):
            with make_batch_study(DESIGN, 6, rng=SEED, jobs=2) as par:
                par.responses()
        lines = [json.loads(l) for l in events.read_text().splitlines()]
        worker_stages = {"batch.frequencies", "aging.sample_prefactors"}
        assert not [e for e in lines if e.get("stage") in worker_stages]

"""Population-batch engine vs per-chip loop (the PR's headline speedup).

Times the full E2-style aging sweep — golden responses plus reliability
at every default year point — at paper scale (50 chips x 256 ROs) twice:
once through the per-chip :class:`~repro.core.factory.Study` loop and
once through the batched :class:`~repro.core.population.BatchStudy`
engine.  Asserts the two paths agree bit-for-bit on every response and
reliability report, and that the batched engine is at least 10x faster.

The sweep timing uses best-of-N wall clock (min is the least noisy
statistic on shared boxes); the memos are cleared per round so every
round pays the full evaluation cost.

``TestTelemetryOverhead`` checks that the progress emitter's lifetime
cap bounds its events file; what the telemetry hooks cost on this sweep
is measured by ``benchmarks/bench_hooks.py``.

``TestParallelScaling`` measures the chip-sharded parallel engine's
``--jobs`` scaling curve end-to-end and enforces the >= 2x floor at four
workers (skipped on boxes with fewer than four cores; the bit-identity
companion check runs everywhere).

``TestStoreOutOfCore`` gates the streaming population store: the
``--store mmap`` sweep must be bit-identical to the dense serial path at
paper scale, its overhead at in-RAM-feasible sizes must stay bounded,
and a fresh-interpreter subprocess sweep (the only honest way to measure
a peak-RSS high-water mark) must complete a 50k-chip E2 story inside a
fixed memory ceiling at a useful chips/sec.  Set ``REPRO_BENCH_MILLION=1``
to additionally run the full 1,000,000-chip x 128-bit acceptance sweep
(< 4 GB peak RSS; needs ~65 GB of scratch disk and tens of minutes).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from _common import best_of, emit
from repro.analysis import DEFAULT_YEARS
from repro.core import (
    aro_design,
    conventional_design,
    make_batch_study,
    make_study,
)
from repro.metrics.reliability import reliability
from repro.telemetry.events import emitter_session

N_CHIPS = 50
SEED = 20140324
SPEEDUP_FLOOR = 10.0


def _sweep_per_chip(study, years):
    goldens = study.responses()
    return goldens, [
        reliability(goldens, study.responses(t_years=t)) for t in years
    ]


def _sweep_batched(batch, years):
    batch._freq_memo.clear()
    batch.aging._memo.clear()
    goldens = batch.responses()
    return goldens, [
        reliability(goldens, batch.responses(t_years=t)) for t in years
    ]


def chips_years_per_s(n_chips, years, elapsed_s):
    """Sweep throughput in simulated chip-years per wall second.

    The perf ledger's headline throughput: one E2-style sweep simulates
    ``sum(years)`` field-years for each of ``n_chips`` chips, so this is
    comparable across chip counts and year grids, unlike raw wall time.
    """
    return n_chips * sum(years) / elapsed_s


@pytest.mark.slow
class TestPopulationEngine:
    @pytest.fixture(scope="class", params=["ro-puf", "aro-puf"])
    def case(self, request):
        design = conventional_design() if request.param == "ro-puf" else aro_design()
        study = make_study(design, n_chips=N_CHIPS, rng=SEED)
        batch = make_batch_study(design, n_chips=N_CHIPS, rng=SEED)
        return request.param, design, study, batch

    def test_bit_identical_sweep(self, case):
        """Every golden response and reliability report matches exactly."""
        name, design, study, batch = case
        years = list(DEFAULT_YEARS)
        g_old, r_old = _sweep_per_chip(study, years)
        g_new, r_new = _sweep_batched(batch, years)
        assert np.array_equal(np.vstack(g_old), g_new)
        for a, b in zip(r_old, r_new):
            assert a.mean_flip_fraction == b.mean_flip_fraction
            assert np.array_equal(a.per_chip, b.per_chip)

    def test_speedup_floor(self, case):
        """The batched sweep is at least 10x faster than the per-chip loop."""
        name, design, study, batch = case
        years = list(DEFAULT_YEARS)
        # best_of's warm-up round pays each path's one-time costs (first
        # batched call faults in its buffers) outside the timing
        t_old = best_of(lambda: _sweep_per_chip(study, years), rounds=5)
        t_new = best_of(lambda: _sweep_batched(batch, years), rounds=15)
        speedup = t_old / t_new
        emit(
            f"population_speedup_{name}",
            f"E2 aging sweep, {N_CHIPS} chips x {study.design.n_ros} ROs, "
            f"{len(years)} year points ({name})\n"
            f"  per-chip loop : {t_old * 1e3:8.2f} ms\n"
            f"  batched engine: {t_new * 1e3:8.2f} ms\n"
            f"  speedup       : {speedup:8.2f} x",
            values={
                "per_chip_s": t_old,
                "batched_s": t_new,
                "speedup": speedup,
            },
            roofline={
                "chips_years_per_s": chips_years_per_s(
                    N_CHIPS, years, t_new
                ),
            },
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"{name}: batched sweep only {speedup:.2f}x faster "
            f"({t_old * 1e3:.2f} ms vs {t_new * 1e3:.2f} ms), "
            f"need >= {SPEEDUP_FLOOR}x"
        )


@pytest.mark.slow
class TestFusedKernel:
    """The fused single-pass kernel's sink identity at paper scale.

    Bits and histogram counts taken from the streaming pass's block
    sinks equal a full-tensor re-read of the very frequencies the pass
    memoised.
    """

    def test_fused_sinks_bit_identical(self):
        from repro.core.readout import compare_pairs
        from repro.metrics.margins import (
            histogram_edges,
            margin_histogram,
            relative_margins,
        )

        design = aro_design()
        batch = make_batch_study(design, n_chips=N_CHIPS, rng=SEED)
        pairs = design.pairing.pairs(design.n_ros, None)
        edges = histogram_edges(0.02, 64)
        for t in (0.0, 10.0):
            # memo miss: the sink fills bits during the streaming pass
            bits = batch.responses(t_years=t)
            # memo hit: the exact tensor the sink's blocks came from
            freqs = batch.frequencies(t)
            assert np.array_equal(
                bits,
                compare_pairs(freqs, pairs, design.tech, design.readout),
            )
            batch._freq_memo.clear()
            counts = batch.margin_histogram(edges, t_years=t)
            freqs = batch.frequencies(t)
            assert np.array_equal(
                counts,
                margin_histogram(relative_margins(freqs, pairs), edges),
            )


@pytest.mark.slow
class TestTelemetryOverhead:
    """The progress emitter's lifetime cap bounds its file.

    What the hooks cost on this sweep is measured by
    ``benchmarks/bench_hooks.py``.
    """

    def test_events_bounded_count(self, tmp_path):
        """Even unthrottled in time, the lifetime cap bounds the file."""
        design = aro_design()
        batch = make_batch_study(design, n_chips=N_CHIPS, rng=SEED)
        years = list(DEFAULT_YEARS)
        cap = 20
        with emitter_session(
            tmp_path / "events.jsonl", min_interval_s=0.0, max_events=cap
        ) as emitter:
            for _ in range(5):
                _sweep_batched(batch, years)
            assert emitter.n_events <= cap
            assert emitter.n_throttled == 0  # the cap drops, not the throttle
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert len(lines) <= cap


@pytest.mark.slow
class TestParallelScaling:
    """The ``--jobs`` scaling curve, with a >= 2x floor at 4 workers.

    Times the full E2-style story end-to-end — engine construction,
    fabrication, golden responses, the year sweep, pool teardown — at a
    population large enough (192 chips) for fabrication to dominate, so
    the measured ratio is the one a real ``repro run --jobs 4`` user sees
    (pool start-up and result pickling count *against* the parallel
    engine).  ``jobs=1`` goes through the same :func:`make_batch_study`
    call, which then builds no pool — the honest baseline.  The whole
    curve is emitted, so the artefact records the scaling shape, not just
    the gated endpoint.
    """

    N_CHIPS_PARALLEL = 192
    JOBS_CURVE = (1, 2, 4)
    PARALLEL_SPEEDUP_FLOOR = 2.0

    @staticmethod
    def _aging_sweep(study, years):
        goldens = study.responses()
        for t in years:
            study.responses(t_years=t)
        return goldens

    def test_parallel_scaling_curve(self):
        cores = os.cpu_count() or 1
        if cores < 4:
            pytest.skip(
                f"parallel speedup gate needs >= 4 CPU cores, box has {cores}"
            )
        design = aro_design()
        years = list(DEFAULT_YEARS)

        def run_at(jobs):
            def run():
                study = make_batch_study(
                    design, self.N_CHIPS_PARALLEL, rng=SEED, jobs=jobs
                )
                try:
                    self._aging_sweep(study, years)
                finally:
                    study.close()

            return best_of(run, rounds=3, warmup=1)

        timings = {jobs: run_at(jobs) for jobs in self.JOBS_CURVE}
        speedups = {jobs: timings[1] / timings[jobs] for jobs in self.JOBS_CURVE}
        curve = "\n".join(
            f"  jobs={jobs}: {timings[jobs] * 1e3:8.2f} ms "
            f"({speedups[jobs]:5.2f} x)"
            for jobs in self.JOBS_CURVE
        )
        emit(
            "parallel_scaling",
            f"E2 aging sweep end-to-end, {self.N_CHIPS_PARALLEL} chips x "
            f"{design.n_ros} ROs, {len(years)} year points (aro-puf)\n"
            + curve,
            values={
                **{f"jobs{jobs}_s": timings[jobs] for jobs in self.JOBS_CURVE},
                **{
                    f"speedup_{jobs}": speedups[jobs]
                    for jobs in self.JOBS_CURVE
                    if jobs > 1
                },
            },
        )
        assert speedups[4] >= self.PARALLEL_SPEEDUP_FLOOR, (
            f"4-worker sweep only {speedups[4]:.2f}x over serial "
            f"({timings[1] * 1e3:.2f} ms vs {timings[4] * 1e3:.2f} ms); "
            f"need >= {self.PARALLEL_SPEEDUP_FLOOR}x"
        )

    def test_parallel_sweep_bit_identical(self):
        """The timed configuration agrees with serial bit-for-bit.

        Runs at a reduced population (the full 192-chip check is the
        tier-1 property test's job at small scale; this guards the exact
        benchmark configuration) and regardless of core count, so the
        identity holds even on boxes where the speedup gate skips.
        """
        design = aro_design()
        n_chips = 24
        serial = make_batch_study(design, n_chips, rng=SEED, jobs=1)
        parallel = make_batch_study(design, n_chips, rng=SEED, jobs=4)
        try:
            for t in (0.0, 10.0):
                assert np.array_equal(
                    serial.responses(t_years=t), parallel.responses(t_years=t)
                )
        finally:
            parallel.close()


#: a self-contained E2-style sweep run in a *fresh* interpreter: the
#: peak-RSS gate must see only the streaming path's own high-water mark,
#: not whatever the pytest process happened to allocate before it.  The
#: child prints one JSON line: wall time, chips/sec of response rows
#: produced, ``ru_maxrss`` in bytes and the 10-year mean flip fraction
#: (a sanity anchor: the streamed sweep still lands in the paper's band).
_STORE_SWEEP_SCRIPT = """\
import json, sys, time
from repro.analysis import DEFAULT_YEARS
from repro.core import aro_design
from repro.metrics.reliability import reliability
from repro.core import make_batch_study
from repro.telemetry.tracer import peak_rss_bytes

n_chips, n_ros, block_size = (int(x) for x in sys.argv[1:4])
design = aro_design(n_ros=n_ros)
t0 = time.perf_counter()
with make_batch_study(
    design, n_chips, store="mmap", block_size=block_size
) as study:
    goldens = study.responses()
    flips = [
        reliability(goldens, study.responses(t_years=t)).mean_flip_fraction
        for t in DEFAULT_YEARS
    ]
elapsed = time.perf_counter() - t0
print(json.dumps({
    "elapsed_s": elapsed,
    "chips_per_s": n_chips * (len(DEFAULT_YEARS) + 1) / elapsed,
    "peak_rss_bytes": peak_rss_bytes(),
    "mean_flip_10y": flips[-1],
}))
"""


def _run_store_sweep_subprocess(n_chips, n_ros, block_size, timeout_s):
    out = subprocess.run(
        [sys.executable, "-c", _STORE_SWEEP_SCRIPT]
        + [str(n_chips), str(n_ros), str(block_size)],
        capture_output=True,
        text=True,
        timeout=timeout_s,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, (
        f"store sweep subprocess failed:\n{out.stderr[-2000:]}"
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.slow
class TestStoreOutOfCore:
    """``--store mmap``: bit-identity, bounded overhead, bounded RSS."""

    #: measured ~0.21 GB at this scale on the reference box; the dense
    #: path needs >1 GB here, so the ceiling separates the two regimes
    #: while absorbing allocator/platform noise
    RSS_N_CHIPS = 50_000
    RSS_N_ROS = 64
    RSS_BLOCK = 2_000
    RSS_CEILING_BYTES = 512 * 2**20
    #: reference box streams ~25k chip-rows/sec; the floor only catches a
    #: collapse (an accidental refabrication per year point, say), not
    #: slow CI hardware
    CHIPS_PER_S_FLOOR = 2_000.0

    #: overhead is measured where the kernels, not the store's fixed
    #: per-corner costs (block bookkeeping), dominate — the
    #: regime the flag exists for.  2k chips x 256 ROs is comfortably
    #: in-RAM-feasible (~40 MB/column) yet compute-bound.  The design
    #: target is < 15 %; the hard gate is looser because single-core CI
    #: boxes time both contenders noisily — the emitted artefact records
    #: the honest number.
    OVERHEAD_N_CHIPS = 2_000
    OVERHEAD_HARD_CEILING = 0.50

    def test_store_bit_identical_sweep(self):
        """Dense and streamed sweeps agree bit-for-bit at paper scale."""
        design = aro_design()
        years = list(DEFAULT_YEARS)
        batch = make_batch_study(design, n_chips=N_CHIPS, rng=SEED)
        g_ram, r_ram = _sweep_batched(batch, years)
        with make_batch_study(
            design, N_CHIPS, rng=SEED, store="mmap", block_size=7
        ) as store:
            g_mm = store.responses()
            r_mm = [
                reliability(g_mm, store.responses(t_years=t)) for t in years
            ]
        assert np.array_equal(g_ram, g_mm)
        for a, b in zip(r_ram, r_mm):
            assert a.mean_flip_fraction == b.mean_flip_fraction
            assert np.array_equal(a.per_chip, b.per_chip)

    def test_store_overhead(self):
        """The streamed sweep stays near the dense one where both fit."""
        design = aro_design()
        years = list(DEFAULT_YEARS)
        n_chips = self.OVERHEAD_N_CHIPS
        batch = make_batch_study(design, n_chips=n_chips, rng=SEED)
        t_ram = best_of(lambda: _sweep_batched(batch, years), rounds=5)

        with make_batch_study(design, n_chips, rng=SEED, store="mmap") as store:

            def sweep_store():
                store.drop_cached_corners()
                goldens = store.responses()
                for t in years:
                    store.responses(t_years=t)
                return goldens

            t_mm = best_of(sweep_store, rounds=5)
        overhead = t_mm / t_ram - 1.0
        emit(
            "store_overhead",
            f"E2 aging sweep, {n_chips} chips x {design.n_ros} ROs, "
            f"{len(years)} year points (aro-puf)\n"
            f"  in-RAM engine : {t_ram * 1e3:8.2f} ms\n"
            f"  mmap store    : {t_mm * 1e3:8.2f} ms\n"
            f"  overhead      : {100.0 * overhead:8.2f} %",
            values={
                "ram_s": t_ram,
                "mmap_s": t_mm,
                "mmap_overhead": max(overhead, 0.0),
            },
        )
        assert overhead <= self.OVERHEAD_HARD_CEILING, (
            f"mmap sweep costs {overhead:+.1%} over the in-RAM engine "
            f"({t_mm * 1e3:.2f} ms vs {t_ram * 1e3:.2f} ms); "
            f"hard ceiling is {self.OVERHEAD_HARD_CEILING:.0%}"
        )

    def test_store_peak_rss_gate(self):
        """A 50k-chip E2 story fits the streaming-path memory ceiling."""
        stats = _run_store_sweep_subprocess(
            self.RSS_N_CHIPS, self.RSS_N_ROS, self.RSS_BLOCK, timeout_s=580
        )
        peak = stats["peak_rss_bytes"]
        rate = stats["chips_per_s"]
        emit(
            "store_peak_rss",
            f"out-of-core E2 sweep, {self.RSS_N_CHIPS} chips x "
            f"{self.RSS_N_ROS} ROs, block {self.RSS_BLOCK} (aro-puf)\n"
            f"  wall time : {stats['elapsed_s']:8.2f} s\n"
            f"  chip rows : {rate:8.0f} /s\n"
            f"  peak RSS  : {peak / 2**20:8.1f} MiB\n"
            f"  flip @10y : {100.0 * stats['mean_flip_10y']:8.2f} %",
            values={
                "elapsed_s": stats["elapsed_s"],
                "chips_per_s": rate,
            },
            memory={"peak_rss_bytes": float(peak)},
        )
        assert peak <= self.RSS_CEILING_BYTES, (
            f"streamed sweep peaked at {peak / 2**20:.0f} MiB, ceiling "
            f"{self.RSS_CEILING_BYTES / 2**20:.0f} MiB"
        )
        assert rate >= self.CHIPS_PER_S_FLOOR, (
            f"streamed sweep produced {rate:.0f} chip rows/sec, floor "
            f"{self.CHIPS_PER_S_FLOOR:.0f}"
        )

    #: the ISSUE's acceptance run: 1M chips x 256 ROs (128 response bits)
    #: in < 4 GB peak RSS.  Opt-in: needs ~65 GB scratch disk and tens of
    #: minutes of single-core time.
    MILLION_CEILING_BYTES = 4 * 2**30

    @pytest.mark.skipif(
        not os.environ.get("REPRO_BENCH_MILLION"),
        reason="set REPRO_BENCH_MILLION=1 to run the million-chip sweep",
    )
    def test_million_chip_sweep(self):
        stats = _run_store_sweep_subprocess(
            1_000_000, 256, 20_000, timeout_s=4 * 3600
        )
        peak = stats["peak_rss_bytes"]
        emit(
            "store_million_chips",
            f"out-of-core E2 sweep, 1,000,000 chips x 256 ROs (128 bits)\n"
            f"  wall time : {stats['elapsed_s']:8.1f} s\n"
            f"  chip rows : {stats['chips_per_s']:8.0f} /s\n"
            f"  peak RSS  : {peak / 2**30:8.2f} GiB\n"
            f"  flip @10y : {100.0 * stats['mean_flip_10y']:8.2f} %",
            values={
                "elapsed_s": stats["elapsed_s"],
                "chips_per_s": stats["chips_per_s"],
            },
            memory={"peak_rss_bytes": float(peak)},
        )
        assert peak <= self.MILLION_CEILING_BYTES, (
            f"million-chip sweep peaked at {peak / 2**30:.2f} GiB, "
            f"ceiling 4 GiB"
        )

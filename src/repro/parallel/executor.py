"""Coordinator side of sharded evaluation: :class:`ShardExecutor`.

A :class:`~repro.core.population.BatchStudy` built with ``jobs > 1``
hands its memo misses to a shard executor, which splits the chip axis
across worker processes.  Each worker runs a ``BatchStudy`` over its own
chip window and the executor reassembles the replies.  Design
invariants:

* **Determinism for any shard count.**  The study's factory derives the
  *full* population's per-chip spawn keys before they are sliced into
  shards; workers replay the serial per-chip draws from those keys.
  Responses, frequencies and aging deltas are therefore bit-identical
  across ``jobs = 1, 2, 4, ...`` — including shard counts that do not
  divide ``n_chips``.
* **Cheap tasks.**  A task pickles spawn keys plus the (small) design
  and mission objects, never population tensors; replies carry only the
  requested result slices.  Workers cache their shard study, so a year
  sweep ships the keys once and the grid points are near-pure kernel
  time.
* **One telemetry stream.**  Workers never write to the parent's tracer
  or heartbeat file (the pool initializer severs inherited telemetry).
  Instead each reply carries a counter/span digest; the executor folds
  counters into the parent tracer, attaches one summary span per shard
  under its ``parallel.evaluate`` span, and emits the merged per-shard
  progress heartbeats itself as replies arrive.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..aging.schedule import IdlePolicy, MissionProfile
from ..core.base import PufDesign
from ..environment.conditions import OperatingConditions
from ..telemetry.tracer import Span
from .sharding import ShardSpec, shard_bounds
from .worker import EvalRequest, ShardReport, evaluate_shard, worker_init

#: distinguishes shard tokens of different studies within one process
_study_counter = itertools.count()


class ShardExecutor:
    """Evaluates :class:`EvalRequest` s over a pool of shard workers.

    Construction is cheap: only the shard specs are built.  The pool
    (and each worker's shard study) comes up lazily on the first
    :meth:`evaluate`; :meth:`close` shuts it down, and the next
    evaluation starts a fresh one.
    """

    def __init__(
        self,
        design: PufDesign,
        mission: MissionProfile,
        idle_policy: Optional[IdlePolicy],
        keys: Tuple[Sequence[int], Sequence[int]],
        *,
        jobs: int,
        store_root: Optional[str] = None,
        block_size: Optional[int] = None,
    ):
        fab_keys, aging_keys = keys
        self.n_chips = len(fab_keys)
        self._specs = [
            ShardSpec(
                design=design,
                mission=mission,
                idle_policy=idle_policy,
                chip_start=start,
                fab_keys=tuple(fab_keys[start:stop]),
                aging_keys=tuple(aging_keys[start:stop]),
                store_root=store_root,
                block_size=block_size,
            )
            for start, stop in shard_bounds(self.n_chips, jobs)
        ]
        token = f"pid{os.getpid()}-study{next(_study_counter)}"
        self._tokens = [f"{token}/s{k}" for k in range(len(self._specs))]
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def jobs(self) -> int:
        """Worker count (clamped to ``n_chips``)."""
        return len(self._specs)

    def close(self) -> None:
        """Shut the worker pool down (idempotent; restarts on use)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def evaluate(
        self,
        kind: str,
        t_years: float,
        conditions: OperatingConditions,
        *,
        challenge: Optional[int] = None,
        mechanism: Optional[str] = None,
        hist_edges: Optional[Tuple[float, ...]] = None,
        years: Optional[Tuple[float, ...]] = None,
    ):
        """Run one request on every shard and merge the replies.

        Array replies are concatenated in chip order (a ``flip_counts``
        reply's golden bits along rows, its counts along the chip axis
        of each year); ``margin_hist`` count vectors are summed.
        Progress heartbeats (one merged ``parallel.shards`` stream) are
        emitted from this process as replies arrive; each reply's
        counter and span digest is folded into the parent tracer, so
        ``--trace`` and ``--metrics-out`` see one coherent run.
        """
        requests = [
            EvalRequest(
                kind, t_years, conditions, challenge, mechanism, hist_edges, years
            )
        ]
        sp = telemetry.start_span(
            "parallel.evaluate",
            jobs=self.jobs,
            n_chips=self.n_chips,
            n_requests=len(requests),
        )
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, initializer=worker_init
                )
            futures = {
                self._pool.submit(
                    evaluate_shard, self._tokens[k], spec, k, requests
                ): k
                for k, spec in enumerate(self._specs)
            }
            reports: List[Optional[ShardReport]] = [None] * len(self._specs)
            pending = set(futures)
            done_chips = 0
            telemetry.progress("parallel.shards", 0, self.n_chips)
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    report = future.result()
                    reports[futures[future]] = report
                    done_chips += report.n_chips
                    telemetry.progress("parallel.shards", done_chips, self.n_chips)
                    self._fold_report(report)
            arrays = [r.arrays[0] for r in reports]
            if kind == "margin_hist":
                return np.sum(arrays, axis=0)
            if kind == "flip_counts":
                goldens, counts = zip(*arrays)
                return np.concatenate(goldens), np.concatenate(counts, axis=1)
            return np.concatenate(arrays)
        finally:
            telemetry.end_span(sp)

    def _fold_report(self, report: ShardReport) -> None:
        """Merge one worker's telemetry digest into the parent tracer."""
        telemetry.count("parallel.shards_completed")
        for name, value in report.counters.items():
            telemetry.count(name, value)
        tracer = telemetry.active()
        if tracer is None:
            return
        for name, hist in report.histograms.items():
            tracer.merge_histogram(name, hist)
        # The worker's real span forest, re-based onto this process's
        # perf_counter timeline via the two clock handshakes: offset =
        # (W_worker - P_worker) - (W_coord - P_coord).  These become the
        # per-worker lanes of the Chrome-trace export.
        offset = 0
        if report.clock is not None:
            offset = (report.clock[0] - report.clock[1]) - (
                tracer.wall0_ns - tracer.perf0_ns
            )
        spans = [Span.from_timed_dict(d, offset) for d in report.spans]
        # The terminal tree shows the same forest as one summary child
        # per shard: per-name duration totals and call counts.  The
        # ``synthetic`` attribute marks timestamps that are durations
        # dressed as spans (start pinned to 0), so clock-faithful views
        # (the Chrome-trace export) skip them in favour of the lanes.
        parent = tracer.active_span
        shard_span = Span(
            "parallel.shard",
            {
                "shard": report.shard_index,
                "n_chips": report.n_chips,
                "wall_s": round(report.wall_s, 6),
                "synthetic": True,
            },
        )
        shard_span.start_ns = 0
        shard_span.end_ns = int(report.wall_s * 1e9)
        totals: Dict[str, List[int]] = {}
        stack = list(spans)
        while stack:
            span = stack.pop()
            row = totals.setdefault(span.name, [0, 0])
            row[0] += 1
            row[1] += max(0, span.end_ns - span.start_ns)
            stack.extend(span.children)
        for name, (calls, total_ns) in sorted(totals.items()):
            child = Span(name, {"calls": calls, "synthetic": True})
            child.start_ns = 0
            child.end_ns = total_ns
            child.parent = shard_span
            shard_span.children.append(child)
        if parent is not None:
            shard_span.parent = parent
            parent.children.append(shard_span)
        else:  # pragma: no cover - tracer active but no open span
            tracer.roots.append(shard_span)
        if spans and report.clock is not None:
            tracer.add_remote_lane(f"worker-{report.shard_index}", spans)

"""Worker-process side of sharded evaluation.

Everything in this module runs inside a ``ProcessPoolExecutor`` worker.
The contract with the coordinator (:mod:`repro.parallel.executor`):

* a task ships a :class:`~repro.parallel.sharding.ShardSpec` (spawn keys
  and config, never tensors) plus a list of :class:`EvalRequest` items;
* the worker fabricates its chip shard locally — through the same block
  fabricators, fed exactly the same child streams, as a serial
  :func:`make_batch_study` would have used for those chips — and keeps
  the resulting shard
  :class:`~repro.core.population.BatchStudy` in a small LRU cache so a
  year sweep pays fabrication once, not once per grid point;
* the reply is a :class:`ShardReport`: the requested arrays (chip-axis
  slices, concatenated coordinator-side in shard order) plus a telemetry
  digest — counters and per-span wall-time totals from a worker-local
  tracer — that the coordinator folds into the parent run's stream.

Workers must not inherit the parent's live telemetry: under the ``fork``
start method the installed tracer/emitter globals (and the emitter's open
file handle) are copied into the child, and a worker writing heartbeats
to the coordinator's JSONL file would interleave with the parent's.
:func:`reset_inherited_telemetry` severs that inheritance in the pool
initializer (and again, defensively, at the top of every task).
"""

from __future__ import annotations

import pathlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..aging.simulator import AgingSimulator, PopulationAging
from ..core.population import BatchStudy, PopulationView, RamColumns
from ..environment.conditions import OperatingConditions
from ..forensics import hook as _hook_mod
from ..telemetry import events as _events_mod
from ..telemetry import sampler as _sampler_mod
from ..telemetry import tracer as _tracer_mod
from ..variation.chip import ChipPopulation
from .cache import ResultCache
from .sharding import ShardSpec


@dataclass(frozen=True)
class EvalRequest:
    """One batched-evaluation call, in :class:`BatchStudy` vocabulary.

    ``mechanism`` applies to ``"mechanism_frequencies"`` requests only;
    ``hist_edges`` (a picklable tuple of bin edges) to ``"margin_hist"``
    requests, whose replies are per-shard integer bin counts that the
    coordinator merges by addition.
    """

    kind: str  # "frequencies" | "responses" | "mechanism_frequencies" | "margin_hist"
    t_years: float = 0.0
    conditions: Optional[OperatingConditions] = None
    challenge: Optional[int] = None
    mechanism: Optional[str] = None
    hist_edges: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in (
            "frequencies",
            "responses",
            "mechanism_frequencies",
            "margin_hist",
        ):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.kind == "mechanism_frequencies" and self.mechanism not in (
            "bti",
            "hci",
        ):
            raise ValueError(
                f"mechanism must be 'bti' or 'hci', got {self.mechanism!r}"
            )
        if self.kind == "margin_hist" and self.hist_edges is None:
            raise ValueError("margin_hist requests need hist_edges")


@dataclass
class ShardReport:
    """A worker's reply: result slices plus its telemetry digest."""

    shard_index: int
    n_chips: int
    arrays: List[np.ndarray]
    counters: Dict[str, float]
    span_totals: Dict[str, Tuple[int, int]]  # name -> (duration_ns, calls)
    wall_s: float
    #: the worker's full span forest as timed dicts (absolute worker
    #: perf_counter_ns timestamps; the coordinator re-bases them via
    #: ``clock``) — the Chrome-trace export's per-worker lanes
    spans: List[Dict] = field(default_factory=list)
    #: serialised Histogram state per metric name, merged bucket-wise
    #: into the coordinator tracer's histograms
    histograms: Dict[str, Dict] = field(default_factory=dict)
    #: the worker's clock handshake ``(wall_ns, perf_ns)`` read
    #: back-to-back; lets the coordinator convert worker perf timestamps
    #: onto its own perf timeline (see ``telemetry.clock_handshake``)
    clock: Optional[Tuple[int, int]] = None


def reset_inherited_telemetry() -> None:
    """Disable any tracer/emitter this process inherited over ``fork``.

    The globals are nulled without calling the uninstall helpers: those
    close the emitter's file handle, and while closing a forked dup is
    harmless to the parent, leaving the object untouched is the least
    surprising behaviour.  The parent flushes after every event line, so
    no buffered bytes can be replayed from the child either way.

    The forensics margin collector is severed for the same reason: shard
    ``responses`` calls inside a worker would otherwise deposit partial
    margin grids into a forked copy of the coordinator's tape.  Margin
    capture for parallel runs happens coordinator-side, from the merged
    frequency tensors.

    A forked resource-sampler slot is severed too: the inherited object
    holds a dead thread handle (threads do not survive ``fork``), and
    sampling in workers is a coordinator decision, not an inherited one.
    """
    _tracer_mod._active = None
    _events_mod._emitter = None
    _hook_mod._collector = None
    _sampler_mod._sampler = None


def worker_init() -> None:
    """``ProcessPoolExecutor`` initializer for shard workers."""
    reset_inherited_telemetry()


# ---------------------------------------------------------------------------
# shard fabrication (cached per worker process)
# ---------------------------------------------------------------------------

#: fabricated shards this worker holds, keyed by the coordinator's shard
#: token.  Tasks are distributed by the pool, not pinned, so one worker
#: may see several shards over a study's lifetime; the LRU bound keeps a
#: long-lived worker from accumulating every shard of every study.
_SHARD_CACHE: "OrderedDict[str, BatchStudy]" = OrderedDict()
_SHARD_CACHE_SIZE = 8


def fabricate_shard(spec: ShardSpec) -> BatchStudy:
    """Build the shard's :class:`BatchStudy` from its spawn keys.

    The shard's rows go through the same block fabricators as the serial
    path — :meth:`VariationModel.fabricate_block` on the chips'
    fabrication streams, then :meth:`PopulationAging.sample` (NBTI before
    HCI) on their aging streams — so responses and deltas of the shard
    rows are bit-identical to the same rows of a whole-population study
    under the same root seed.
    """
    design, mission = spec.design, spec.mission
    model = design.variation_model()
    with telemetry.span(
        "parallel.fabricate_shard",
        chip_start=spec.chip_start,
        n_chips=spec.n_chips,
    ):
        shape = (spec.n_chips, design.n_ros, design.n_stages, 2)
        vth, tc_scale = np.empty(shape), np.empty(shape)
        model.fabricate_block(spec.fab_keys, vth, tc_scale)
        population = ChipPopulation.from_block(
            vth, tc_scale, model.positions, chip_ids=spec.chip_ids
        )
        simulator = AgingSimulator(
            design.tech, design.cell, mission, idle_policy=spec.idle_policy
        )
        aging = PopulationAging.sample(
            simulator, population, children=spec.aging_keys
        )
        source = RamColumns(
            PopulationView.from_chips(population), aging, spec.block_size
        )
        return BatchStudy(design, source, mission)


def attach_shard(spec: ShardSpec) -> BatchStudy:
    """A :class:`BatchStudy` over this shard's row window of the
    coordinator's shared store (``spec.store_root`` is set).

    Nothing is re-fabricated eagerly: the worker's study materialises the
    store blocks overlapping its row window on first touch, writing into
    the *same* files every other worker maps, so a block is fabricated at
    most once per sweep across the whole pool (identical bytes if two
    workers ever race on a boundary block).  The worker's frequency memo
    spills next to the store, keeping worker RSS block-bounded too.
    """
    from ..store.store import PopulationStore, StoreColumns

    root = pathlib.Path(spec.store_root)
    with telemetry.span(
        "parallel.attach_shard",
        chip_start=spec.chip_start,
        n_chips=spec.n_chips,
    ):
        store = PopulationStore.attach(
            root,
            spec.design,
            mission=spec.mission,
            idle_policy=spec.idle_policy,
        )
        source = StoreColumns(
            store,
            row_start=spec.chip_start,
            row_stop=spec.chip_start + spec.n_chips,
            spill=ResultCache(root / "spill"),
        )
        return BatchStudy(spec.design, source, spec.mission)


def _cached_shard(token: str, spec: ShardSpec) -> BatchStudy:
    shard = _SHARD_CACHE.get(token)
    if shard is not None:
        _SHARD_CACHE.move_to_end(token)
        telemetry.count("parallel.shard_cache_hits")
        return shard
    telemetry.count("parallel.shard_cache_misses")
    shard = attach_shard(spec) if spec.store_root else fabricate_shard(spec)
    _SHARD_CACHE[token] = shard
    if len(_SHARD_CACHE) > _SHARD_CACHE_SIZE:
        _SHARD_CACHE.popitem(last=False)
    return shard


def _span_totals(tracer: telemetry.Tracer) -> Dict[str, Tuple[int, int]]:
    """Wall-time totals by span name over the worker's whole span forest."""
    totals: Dict[str, Tuple[int, int]] = {}
    stack = list(tracer.roots)
    while stack:
        span = stack.pop()
        duration, calls = totals.get(span.name, (0, 0))
        totals[span.name] = (duration + span.duration_ns, calls + 1)
        stack.extend(span.children)
    return totals


def evaluate_shard(
    token: str,
    spec: ShardSpec,
    shard_index: int,
    requests: List[EvalRequest],
) -> ShardReport:
    """Entry point of one pool task: fabricate (or reuse) and evaluate.

    Runs every request through the shard's :class:`BatchStudy` under a
    worker-local tracer, so the report can carry the work done (kernel
    counters, span totals) back to the coordinator without any shared
    state between processes.
    """
    reset_inherited_telemetry()
    clock = telemetry.clock_handshake()
    t0 = time.perf_counter()
    with telemetry.session() as tracer:
        shard = _cached_shard(token, spec)
        arrays: List[np.ndarray] = []
        for req in requests:
            if req.kind == "frequencies":
                out = shard.frequencies(req.t_years, req.conditions)
            elif req.kind == "responses":
                out = shard.responses(
                    req.challenge, req.t_years, conditions=req.conditions
                )
            elif req.kind == "mechanism_frequencies":
                out = shard.mechanism_frequencies(
                    req.t_years, req.mechanism, req.conditions
                )
            else:  # margin_hist: per-shard reduction, merged by addition
                out = shard.margin_histogram(
                    np.asarray(req.hist_edges, dtype=float),
                    req.challenge,
                    req.t_years,
                    conditions=req.conditions,
                )
            if isinstance(out, np.memmap):
                # a store-backed shard hands back a read-only memmap of
                # its spilled corner; materialise the shard slice so the
                # reply pickles as plain bytes
                out = np.array(out)
            arrays.append(out)
        span_totals = _span_totals(tracer)
        counters = dict(tracer.counters)
        spans = [root.to_timed_dict() for root in tracer.roots]
        histograms = {
            name: hist.to_dict() for name, hist in tracer.histograms.items()
        }
    return ShardReport(
        shard_index=shard_index,
        n_chips=spec.n_chips,
        arrays=arrays,
        counters=counters,
        span_totals=span_totals,
        wall_s=time.perf_counter() - t0,
        spans=spans,
        histograms=histograms,
        clock=clock,
    )

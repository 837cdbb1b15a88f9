"""Batched population evaluation: the one engine behind the experiment suite.

Every experiment in the paper's evaluation is a population × time-grid
Monte-Carlo.  The per-chip :class:`~repro.core.base.RoPufInstance` API
evaluates that one chip and one year at a time — clear for examples, but
the Python loop around it dominates wall-clock at paper scale.  This
module streams a whole population through the fused block kernel
(:func:`~repro.kernel.fused.frequency_block_kernel`) in one pass per
operating corner and time point — or, for a year sweep
(:meth:`BatchStudy.flip_counts`), in one pass for every year at once:

* :class:`PopulationView` — the stacked threshold/`tc_scale` tensors plus
  thin per-chip :class:`~repro.variation.chip.Chip` views;
* :class:`RamColumns` — the in-RAM *column source*: a view plus its
  :class:`~repro.aging.simulator.PopulationAging`.  The out-of-core
  source, :class:`repro.store.store.StoreColumns`, reads a row window of
  a memory-mapped :class:`~repro.store.store.PopulationStore` through the
  same interface;
* :class:`BatchStudy` — the engine: one memo and one corner loop over
  whichever source it was given, optionally handing whole requests to a
  :class:`repro.parallel.executor.ShardExecutor` whose workers each run
  a ``BatchStudy`` over their own chip window;
* :func:`make_batch_study` — the only factory; consumes the RNG like
  :func:`~repro.core.factory.make_study`, so the same seed fabricates the
  same chips and prefactors for any source and worker count, and golden
  responses are bit-identical.

The batched frequency kernel folds every scalar factor (drive constant,
mobility, load, stage-0 penalty, ``c_load_factor``) into the stage-weight
reduction, so the per-grid-point cost is one subtract, one power and one
matvec over the population tensor.  Frequencies therefore agree with
the per-chip path to rounding (``rtol`` ~1e-12) rather than bit-for-bit;
response *bits* and aging *deltas* are identical.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from .._rng import RngLike, spawn, spawn_keys
from ..aging.schedule import IdlePolicy, MissionProfile
from ..aging.simulator import AgingSimulator, ChipAging, PopulationAging
from ..environment.conditions import OperatingConditions
from ..forensics import hook as _forensics_hook
from ..kernel.fused import (
    MarginHistogramSink,
    ResponseBlockSink,
    finalize_period_block,
    frequency_block_kernel,
)
from ..transistor.mosfet import mobility_factor
from ..transistor.technology import T_REF_K, TechnologyCard
from ..variation.chip import Chip, ChipPopulation
from .base import PufDesign, RoPufInstance
from .factory import Study

__all__ = [
    "PopulationView",
    "RamColumns",
    "BatchStudy",
    "make_batch_study",
    "frequency_block_kernel",
]


class PopulationView:
    """A chip population stacked into contiguous evaluation tensors.

    Parameters
    ----------
    vth:
        Threshold tensor, shape ``(n_chips, n_ros, n_stages, 2)``, volts.
    tc_scale:
        Stacked temperature-coefficient mismatch, same shape as ``vth``.
    positions:
        RO grid coordinates shared by every chip, shape ``(n_ros, 2)``.
    chip_ids:
        Monte-Carlo index of each row (defaults to ``0 .. n_chips - 1``).
    """

    def __init__(
        self,
        vth: np.ndarray,
        tc_scale: np.ndarray,
        positions: np.ndarray,
        chip_ids: Optional[Sequence[int]] = None,
    ):
        vth = np.asarray(vth, dtype=float)
        if vth.ndim != 4 or vth.shape[-1] != 2:
            raise ValueError(
                f"vth must have shape (n_chips, n_ros, n_stages, 2), got {vth.shape}"
            )
        tc_scale = np.asarray(tc_scale, dtype=float)
        if tc_scale.shape != vth.shape:
            raise ValueError(
                f"tc_scale shape {tc_scale.shape} does not match vth {vth.shape}"
            )
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (vth.shape[1], 2):
            raise ValueError(
                f"positions must have shape ({vth.shape[1]}, 2), got {positions.shape}"
            )
        self.vth = vth
        self.tc_scale = tc_scale
        self.positions = positions
        self.chip_ids = (
            list(range(vth.shape[0])) if chip_ids is None else list(chip_ids)
        )
        if len(self.chip_ids) != vth.shape[0]:
            raise ValueError("chip_ids must name every chip row")

    @classmethod
    def from_chips(
        cls, chips: Union[ChipPopulation, Sequence[Chip]]
    ) -> "PopulationView":
        """Stack a population (or any chip sequence) into one view.

        A population fabricated as one block hands over its tensors
        without a copy.
        """
        block = chips if isinstance(chips, ChipPopulation) else None
        chips = list(chips)
        if not chips:
            raise ValueError("population is empty")
        if block is not None and block.vth is not None:
            vth, tc_scale = block.vth, block.tc_scale
        else:
            vth = np.stack([c.vth for c in chips])
            tc_scale = np.stack([c.tc_scale for c in chips])
        return cls(
            vth=vth,
            tc_scale=tc_scale,
            positions=chips[0].positions,
            chip_ids=[c.chip_id for c in chips],
        )

    @property
    def n_chips(self) -> int:
        return self.vth.shape[0]

    @property
    def n_ros(self) -> int:
        return self.vth.shape[1]

    @property
    def n_stages(self) -> int:
        return self.vth.shape[2]

    def chip(self, index: int) -> Chip:
        """Thin per-chip :class:`Chip` view of row ``index`` (no copy)."""
        return Chip(
            vth=self.vth[index],
            positions=self.positions,
            tc_scale=self.tc_scale[index],
            chip_id=self.chip_ids[index],
        )

    def chips(self) -> List[Chip]:
        return [self.chip(i) for i in range(self.n_chips)]


def _stage_weights(
    tech: TechnologyCard,
    n_stages: int,
    *,
    vdd: float,
    temperature_k: float,
    stage0_penalty: float,
    c_load_factor: float,
) -> np.ndarray:
    """Stage/polarity reduction weights with all scalar factors folded in.

    One device's transition delay is ``c_load * vdd / (k * mu * od**alpha)``;
    summing over stages (stage 0 weighted by its structural penalty) and
    dividing by ``c_load_factor`` gives the ring frequency.  Folding the
    scalar prefactor and the load factor into the weights leaves the hot
    kernel with a single power and a single matvec.
    """
    mu = mobility_factor(temperature_k, tech)
    scale = tech.c_load * vdd / (tech.k_drive * mu) * c_load_factor
    weights = np.full((n_stages, 2), scale)
    weights[0, :] *= stage0_penalty
    return weights


class RamColumns:
    """The in-RAM column source: a :class:`PopulationView` plus its aging.

    A column source hands :class:`BatchStudy` window-relative row access
    to the ``vth`` / ``tc_scale`` columns, the per-block aging
    subtraction, and the block structure of its rows.  In RAM every row
    is resident, so :meth:`ensure` and :meth:`release` do nothing and
    corners never spill.

    ``block_size`` is the source block in chips (``None``: the whole
    population is one block); the kernel's work buffer never exceeds it.
    """

    #: resident by construction: pages are never released, corners never spill
    streaming = False
    spill = None

    def __init__(
        self,
        view: PopulationView,
        aging: PopulationAging,
        block_size: Optional[int] = None,
    ):
        if aging.n_chips != view.n_chips:
            raise ValueError(
                f"aging carries {aging.n_chips} chips, population has "
                f"{view.n_chips}"
            )
        self.view = view
        self.aging = aging
        self.block_size = block_size
        self.n_chips = view.n_chips
        self.n_ros = view.n_ros
        self.n_stages = view.n_stages

    def column(self, name: str) -> np.ndarray:
        return {"vth": self.view.vth, "tc_scale": self.view.tc_scale}[name]

    def blocks(self) -> List[Tuple[int, int]]:
        step = self.block_size or self.n_chips
        return [
            (lo, min(lo + step, self.n_chips))
            for lo in range(0, self.n_chips, step)
        ]

    def ensure(self, lo: int, hi: int, columns: Sequence[str]) -> None:
        pass

    def release(self, lo: int, hi: int, columns: Sequence[str], out=None) -> None:
        pass

    def subtracter(self, t: float, mechanism: Optional[str] = None):
        """``(subtract(od, scratch, lo, hi), columns)`` for one pass at ``t``.

        The golden path is always the factored
        :meth:`~PopulationAging.subtract_delta_into` — the grouping the
        store and the shard workers compute — so a frequency never
        depends on which deltas an earlier call memoised; a mechanism
        pass subtracts one mechanism's field in the exact
        :meth:`~PopulationAging.delta_components` grouping.
        """
        aging = self.aging
        if mechanism is not None:
            component = aging.component_subtracter(t, mechanism)

            def subtract(od, scratch, lo, hi):
                component(od, scratch, slice(lo, hi))

            return subtract, ()

        def subtract(od, scratch, lo, hi):
            aging.subtract_delta_into(t, od, scratch, rows=slice(lo, hi))

        return subtract, ()

    def close(self) -> None:
        pass


class BatchStudy:
    """A fabricated, aging-ready population evaluated whole-array at once.

    The batched counterpart of :class:`~repro.core.factory.Study`: the
    same design / mission bundle, but frequencies and responses come back
    as ``(n_chips, ...)`` arrays from one streaming pass instead of a
    Python loop over per-chip instances.

    The rows come from a column ``source`` — :class:`RamColumns` or a
    :class:`repro.store.store.StoreColumns` window of an mmap store.
    With an ``executor`` (:class:`repro.parallel.executor.ShardExecutor`)
    memo misses are answered by shard workers instead, each running a
    ``BatchStudy`` over its own chip window; the replies are
    concatenated (or, for histogram counts, summed) in chip order.  The
    source may then be ``None`` (workers fabricate in RAM) or the shared
    store the workers attach to.

    Frequencies are memoised per ``(t_years, conditions[, mechanism])``
    (LRU), so repeated golden-response queries are free.  Memoised arrays
    are read-only — copy before mutating.  A source that streams and
    carries a spill cache keeps its corners on disk instead, in a
    shallower memo whose evictions delete the bytes.

    Per-chip :class:`RoPufInstance` views remain available through
    :attr:`instances` / :meth:`aged_instances` on an in-RAM source.
    """

    #: number of (t_years, conditions) corners kept in the frequency memo
    MEMO_SIZE = 32
    #: corners kept on disk when spilling — each costs a population-sized
    #: segment, so the memo is shallow and eviction deletes the bytes
    SPILL_MEMO_SIZE = 4

    def __init__(
        self,
        design: PufDesign,
        source,
        mission: MissionProfile,
        *,
        executor=None,
    ):
        if source is None and executor is None:
            raise ValueError("a study needs a column source or an executor")
        if source is not None:
            if source.n_stages != design.n_stages:
                raise ValueError(
                    f"population has {source.n_stages} stages per RO, design "
                    f"wants {design.n_stages}"
                )
            if source.n_ros != design.n_ros:
                raise ValueError(
                    f"population has {source.n_ros} ROs, design wants "
                    f"{design.n_ros}"
                )
        self.design = design
        self.source = source
        self.mission = mission
        self._executor = executor
        # (t, cond[, mechanism]) -> (read-only array, spill key or None)
        self._freq_memo: "OrderedDict[tuple, Tuple[np.ndarray, Optional[str]]]" = (
            OrderedDict()
        )
        self._od_buf: Optional[np.ndarray] = None
        self._scratch_buf: Optional[np.ndarray] = None
        self._instances: Optional[List[RoPufInstance]] = None

    # ---- construction ------------------------------------------------

    @classmethod
    def from_study(cls, study: Study) -> "BatchStudy":
        """Stack an existing per-chip :class:`Study` (shared chips and
        prefactors, so both views answer identically)."""
        return cls(
            study.design,
            RamColumns(
                PopulationView.from_chips([inst.chip for inst in study.instances]),
                PopulationAging.from_agings(study.agings),
            ),
            study.mission,
        )

    # ---- geometry ----------------------------------------------------

    @property
    def n_chips(self) -> int:
        if self.source is not None:
            return self.source.n_chips
        return self._executor.n_chips

    @property
    def n_bits(self) -> int:
        return self.design.n_bits

    @property
    def jobs(self) -> int:
        """Worker processes (clamped to ``n_chips``); 1 when in-process."""
        return 1 if self._executor is None else self._executor.jobs

    @property
    def view(self) -> PopulationView:
        """The stacked tensors of an in-RAM source."""
        return self.source.view

    @property
    def aging(self) -> PopulationAging:
        """The population aging of an in-RAM source."""
        return self.source.aging

    @property
    def memo_size(self) -> int:
        return self.SPILL_MEMO_SIZE if self._spilling else self.MEMO_SIZE

    @property
    def _spill(self):
        if self._executor is not None or self.source is None:
            return None
        return self.source.spill

    @property
    def _spilling(self) -> bool:
        # Corners go to disk only when the window actually streams: one
        # under the resident budget keeps them in the deep in-RAM memo
        # instead of paying file create/commit/reopen per corner.
        return self._spill is not None and self.source.streaming

    # ---- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down and release the column source.

        Idempotent.  An in-RAM study holds nothing, and a pool restarts on
        the next evaluation; a store source owned by the study (created in
        a temporary directory) is deleted.
        """
        if self._executor is not None:
            self._executor.close()
        if self.source is not None:
            self.source.close()

    def __enter__(self) -> "BatchStudy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ---- memoisation / spill -----------------------------------------

    @staticmethod
    def _key(t_years, conditions, mechanism: Optional[str] = None) -> tuple:
        t = float(t_years)
        if t < 0:
            raise ValueError("t_years must be non-negative")
        cond = conditions or OperatingConditions.nominal()
        return (t, cond) if mechanism is None else (t, cond, mechanism)

    def _memo_lookup(self, key: tuple) -> Optional[np.ndarray]:
        entry = self._freq_memo.get(key)
        if entry is not None:
            self._freq_memo.move_to_end(key)
            telemetry.count("batch.corner_memo_hits")
            return entry[0]
        spill = self._spill
        if spill is not None:
            # a corner spilled by an earlier run against a persistent
            # store directory is as good as a memo hit
            spill_key = self.source.spill_key(key, self.design)
            arr = spill.open_array(spill_key)
            if arr is not None:
                telemetry.count("batch.corner_memo_hits")
                return self._memoise(key, arr, spill_key)
        return None

    def _memoise(
        self, key: tuple, freqs: np.ndarray, spill_key: Optional[str] = None
    ) -> np.ndarray:
        if not isinstance(freqs, np.memmap):
            freqs.flags.writeable = False
        self._freq_memo[key] = (freqs, spill_key)
        while len(self._freq_memo) > self.memo_size:
            _, (old, old_key) = self._freq_memo.popitem(last=False)
            del old
            if old_key is not None:
                self.source.spill.discard_array(old_key)
                telemetry.count("store.spill_evictions")
        return freqs

    def drop_cached_corners(self) -> None:
        """Forget every memoised corner, discarding spilled files too.

        Benchmarks call this between rounds so every sweep pays the full
        cost (a cleared memo alone would satisfy the next lookup from the
        spill directory).  A persistent store loses only its cached
        corners — never its fabricated columns.
        """
        while self._freq_memo:
            _, (arr, spill_key) = self._freq_memo.popitem(last=False)
            del arr
            if spill_key is not None:
                self.source.spill.discard_array(spill_key)

    def _alloc_result(self, key: tuple) -> Tuple[np.ndarray, Optional[str]]:
        shape = (self.source.n_chips, self.design.n_ros)
        if not self._spilling:
            return np.empty(shape), None
        spill_key = self.source.spill_key(key, self.design)
        telemetry.count("store.spill_writes")
        return self.source.spill.create_array(spill_key, shape), spill_key

    def _seal_result(
        self, out: np.ndarray, spill_key: Optional[str], meta: Dict[str, object]
    ) -> np.ndarray:
        """Publish a computed corner: commit + reopen read-only if spilled."""
        if spill_key is None:
            return out
        out.flush()
        del out
        spill = self.source.spill
        spill.commit_array(spill_key, meta=meta)
        sealed = spill.open_array(spill_key)
        if sealed is None:  # pragma: no cover - disk-level failure
            raise RuntimeError("spilled corner vanished between commit and reopen")
        return sealed

    # ---- batched evaluation ------------------------------------------

    def frequencies(
        self,
        t_years: float = 0.0,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """True mean frequency of every oscillator of every chip (hertz).

        Shape ``(n_chips, n_ros)``; row ``i`` equals
        ``instances[i].frequencies(conditions)`` after ``t_years`` of
        aging, to floating-point rounding (``rtol`` ~1e-12).  A spilling
        store source returns a read-only memmap of the on-disk corner.
        """
        key = self._key(t_years, conditions)
        cached = self._memo_lookup(key)
        if cached is not None:
            return cached
        if self._executor is not None:
            return self._memoise(key, self._executor.evaluate("frequencies", *key))
        return self._corner_pass(key)

    def mechanism_frequencies(
        self,
        t_years: float,
        mechanism: str,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Counterfactual frequencies with a single aging mechanism active.

        ``mechanism`` is ``"bti"`` (NBTI/PBTI only) or ``"hci"`` (HCI
        only): the full population evaluated as if the *other* mechanism
        had contributed no threshold shift at ``t_years``.  The forensics
        layer differences these against the true aged frequencies to
        attribute each bit's margin loss to a mechanism.

        The same streaming pass as :meth:`frequencies`, subtracting only
        the requested mechanism's component per block in the exact
        :meth:`~repro.aging.simulator.PopulationAging.delta_components`
        grouping, so nothing population-sized is allocated beyond the
        result.  Memoised alongside :meth:`frequencies`, read-only.
        """
        if mechanism not in ("bti", "hci"):
            raise ValueError(f"mechanism must be 'bti' or 'hci', got {mechanism!r}")
        key = self._key(t_years, conditions, mechanism)
        cached = self._memo_lookup(key)
        if cached is not None:
            return cached
        if self._executor is not None:
            freqs = self._executor.evaluate(
                "mechanism_frequencies", key[0], key[1], mechanism=mechanism
            )
            return self._memoise(key, freqs)
        return self._corner_pass(key)

    def responses(
        self,
        challenge: Optional[int] = None,
        t_years: float = 0.0,
        *,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Golden responses of every chip at ``t_years``.

        Shape ``(n_chips, n_bits)`` uint8; row ``i`` is bit-identical to
        ``Study.responses(challenge, t_years)[i]`` under the same seed.

        On a frequency-memo miss the bits are emitted by the fused
        kernel pass itself (one stream over the population instead of a
        compute pass plus a compare pass); on a hit they come from the
        memoised tensor.  Both orders run the identical comparison, so
        the bits cannot differ.
        """
        telemetry.count("batch.response_passes")
        key = self._key(t_years, conditions)
        pairs = self.design.pairing.pairs(self.design.n_ros, challenge)
        freqs = self._memo_lookup(key)
        if freqs is None and self._executor is not None:
            bits = self._executor.evaluate("responses", *key, challenge=challenge)
            # workers have their collector slot severed, so the forensics
            # tape sees the merged grid here, once per corner
            if _forensics_hook.active_collector() is not None:
                freqs = self.frequencies(*key)
        else:
            bits = np.empty((self.n_chips, pairs.shape[0]), dtype=np.uint8)
            freqs = self._feed(key, freqs, ResponseBlockSink(pairs, bits))
        if freqs is not None:
            # forensics hook: no-op (one branch) unless a collector is
            # installed; the bits above never depend on the capture
            _forensics_hook.record_response_margins(freqs, pairs, *key)
            self._release(freqs)
        return bits

    def flip_counts(
        self,
        years: Sequence[float],
        challenge: Optional[int] = None,
        *,
        conditions: Optional[OperatingConditions] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Golden bits and per-chip flipped-bit counts along a year sweep.

        Returns ``(golden, counts)``: ``golden`` is ``responses(challenge,
        0.0)`` (``(n_chips, n_bits)`` uint8) and ``counts[k, i]`` is the
        number of bits of chip ``i`` that differ from its golden response
        after ``years[k]`` — ``(len(years), n_chips)`` int64, equal to
        XOR-counting :meth:`responses` at every year, byte for byte.

        One stream over the population evaluates every year: per source
        block the rows are materialised and released once, and per kernel
        block all the years are computed back to back and reduced against
        the t = 0 bits by one gather, compare and count.  No frequency
        corner is allocated, memoised or spilled.  With a forensics
        margin collector installed the sweep runs corner by corner
        through :meth:`responses` instead, so the collector still sees
        every corner.
        """
        keys = [self._key(t, conditions) for t in (0.0, *years)]
        cond = keys[0][1]
        if _forensics_hook.active_collector() is not None:
            golden = self.responses(challenge, conditions=cond)
            counts = np.zeros((len(years), self.n_chips), dtype=np.int64)
            for k, (t, _) in enumerate(keys[1:]):
                aged = self.responses(challenge, t, conditions=cond)
                counts[k] = np.count_nonzero(aged != golden, axis=1)
            return golden, counts
        telemetry.count("batch.response_passes", len(keys))
        if self._executor is not None:
            return self._executor.evaluate(
                "flip_counts",
                0.0,
                cond,
                challenge=challenge,
                years=tuple(t for t, _ in keys[1:]),
            )
        pairs = self.design.pairing.pairs(self.design.n_ros, challenge)
        golden = np.empty((self.n_chips, pairs.shape[0]), dtype=np.uint8)
        counts = np.empty((len(years), self.n_chips), dtype=np.int64)
        sink = ResponseBlockSink(pairs, golden, counts)
        telemetry.count("batch.sweep_passes")
        telemetry.count("batch.corner_memo_misses", len(keys))
        with telemetry.span(
            "batch.flip_counts",
            n_years=len(years),
            temperature_k=cond.temperature_k,
            n_chips=self.n_chips,
            n_ros=self.design.n_ros,
        ):
            self._stream([t for t, _ in keys], cond, None, (sink,))
        return golden, counts

    def margin_histogram(
        self,
        edges: np.ndarray,
        challenge: Optional[int] = None,
        t_years: float = 0.0,
        *,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """Histogram counts of the signed response margins (int64).

        Bins the population's relative pair margins at ``t_years`` over
        the explicit ``edges`` (see
        :func:`repro.metrics.margins.histogram_edges`).  Counts are
        accumulated per block (by the fused pass on a memo miss, from the
        memoised tensor on a hit, per shard with an executor) and merged
        by addition — identical to one-shot binning because the edges are
        shared and binning is per-element.
        """
        key = self._key(t_years, conditions)
        freqs = self._memo_lookup(key)
        if freqs is None and self._executor is not None:
            edges = tuple(float(e) for e in np.asarray(edges, dtype=float))
            return self._executor.evaluate(
                "margin_hist", *key, challenge=challenge, hist_edges=edges
            )
        pairs = self.design.pairing.pairs(self.design.n_ros, challenge)
        sink = MarginHistogramSink(pairs, edges)
        self._release(self._feed(key, freqs, sink))
        return sink.counts

    def _feed(self, key: tuple, freqs: Optional[np.ndarray], sink) -> np.ndarray:
        """Run ``sink`` over the corner's rows: from the memoised tensor on
        a hit (block by block, so a spilled corner is never faulted in
        whole), fused into a fresh pass on a miss."""
        if freqs is None:
            return self._corner_pass(key, (sink,))
        if self.source is None:
            blocks = [(0, freqs.shape[0])]
        else:
            blocks = self.source.blocks()
        for lo, hi in blocks:
            sink(lo, hi, freqs[None, lo:hi])
        return freqs

    def _release(self, freqs: np.ndarray) -> None:
        """Drop a spilled corner's pages from RSS after a full pass."""
        if self.source is not None:
            self.source.release(0, freqs.shape[0], (), freqs)

    # ---- the streaming loop ------------------------------------------

    #: chip-axis block size of the work buffers, in tensor elements.  Two
    #: buffers of ~48k float64 elements (~380 KiB each) fit comfortably in
    #: a commodity 1-2 MiB L2 alongside the streamed input slices, which
    #: is worth ~1.5x on the memory-bound part of the frequency kernel.
    _BLOCK_ELEMS = 48_000

    #: sink flush window of a one-corner pass, in elements of the
    #: frequency tensor (~8 MiB of float64 rows).  Sinks are fed at this
    #: coarser granularity rather than per kernel block: their per-call
    #: gather / compare dispatch costs ~10 us regardless of size, which
    #: at kernel-block width (a few dozen chips) would dominate the
    #: corner; an 8 MiB window amortises it to noise while still bounding
    #: the re-read traffic far below the population tensor at large
    #: n_chips.  Sinks are also fed at the end of every source block,
    #: before a streaming source releases its pages.
    _SINK_WINDOW_ELEMS = 1_048_576

    def _work_buffers(self) -> tuple:
        """Persistent chip-axis-blocked scratch (overdrive + delta)."""
        if self._od_buf is None:
            src = self.source
            per_chip = src.n_ros * src.n_stages * 2
            block = min(
                src.n_chips,
                src.block_size or src.n_chips,
                self._BLOCK_ELEMS // per_chip,
            )
            shape = (max(1, block), src.n_ros, src.n_stages, 2)
            self._od_buf = np.empty(shape)
            self._scratch_buf = np.empty(shape)
        return self._od_buf, self._scratch_buf

    def _corner_pass(self, key: tuple, sinks: tuple = ()) -> np.ndarray:
        """Compute, seal and memoise one corner: :meth:`_stream` with a
        single time point, its frequencies kept in the memo (or spill)."""
        t, cond = key[0], key[1]
        mechanism = key[2] if len(key) > 2 else None
        telemetry.count("batch.corner_memo_misses")
        if mechanism is not None:
            telemetry.count("batch.mechanism_passes")
        src = self.source
        sp = telemetry.start_span(
            "batch.mechanism_frequencies" if mechanism else "batch.frequencies",
            t_years=t,
            temperature_k=cond.temperature_k,
            n_chips=src.n_chips,
            n_ros=src.n_ros,
        )
        out, spill_key = self._alloc_result(key)
        try:
            self._stream([t], cond, mechanism, sinks, out)
        except Exception:
            if spill_key is not None:
                del out
                src.spill.discard_array(spill_key)
            telemetry.end_span(sp)
            raise
        meta = {"t_years": t, "temperature_k": cond.temperature_k}
        if mechanism is not None:
            meta["mechanism"] = mechanism
        freqs = self._seal_result(out, spill_key, meta)
        telemetry.end_span(sp)
        tr = telemetry.active()
        if tr is not None and sp is not None:
            tr.observe("batch.corner_s", sp.duration_ns / 1e9)
        return self._memoise(key, freqs, spill_key)

    def _stream(
        self,
        ts: Sequence[float],
        cond: OperatingConditions,
        mechanism: Optional[str],
        sinks: tuple,
        corner: Optional[np.ndarray] = None,
    ) -> None:
        """The one streaming loop: store block → kernel block → year.

        Per source block: materialise its rows once, then per kernel
        block fabricate overdrives, subtract the aging field at every
        ``t`` of ``ts`` in turn, reduce to periods and flip to
        frequencies.  Every ``sink`` (response bits and flip counts,
        margin histograms) consumes the fresh ``(len(ts), rows, n_ros)``
        frequency rows while they are cache-warm and resident; then a
        streaming source releases the block's pages.

        With ``corner`` (one time point) the frequencies are written to
        that ``(n_chips, n_ros)`` result and sinks are fed in windows of
        :data:`_SINK_WINDOW_ELEMS` and at every source block end; without
        it they land in one kernel-block buffer that a sink call after
        every kernel block recycles, so a year sweep allocates nothing
        population-sized.  Sinks only save the *re-read* passes, so fused
        and unfused evaluation orders are bit-identical, as are any two
        block sizes.
        """
        tech = self.design.tech
        src = self.source
        vdd = cond.effective_vdd(tech)
        delta_temp = cond.temperature_k - T_REF_K
        weights = _stage_weights(
            tech,
            self.design.n_stages,
            vdd=vdd,
            temperature_k=cond.temperature_k,
            stage0_penalty=self.design.cell.stage0_penalty,
            c_load_factor=self.design.cell.c_load_factor,
        )
        w_flat = np.ascontiguousarray(weights.reshape(-1))
        neg_alpha = -tech.alpha
        tc_coeff = tech.vth_tc * delta_temp
        columns = ["vth"]
        vth = src.column("vth")
        tc = None
        if delta_temp != 0.0:
            # off nominal temperature the tc mismatch term is non-zero
            columns.append("tc_scale")
            tc = src.column("tc_scale")
        subtracts = []
        for t in ts:
            subtract = None
            if t > 0.0:
                subtract, aging_columns = src.subtracter(t, mechanism)
                columns.extend(c for c in aging_columns if c not in columns)
            subtracts.append(subtract)
        # The overdrive tensor is assembled block-by-block along the chip
        # axis in two persistent buffers: allocating (and page-faulting) a
        # population-sized array per grid point would cost as much as the
        # arithmetic itself, and block-sized work buffers stay L2-resident
        # through the whole subtract/clip/power chain instead of streaming
        # a population-sized tensor through the cache several times over.
        od_buf, scratch_buf = self._work_buffers()
        kb = od_buf.shape[0]
        n_chips = src.n_chips
        if corner is None:
            # a sweep reduces every kernel block while its len(ts) corners
            # are cache-warm: the one sink call already amortises its
            # dispatch over the years, and the buffer stays block-sized
            window = kb
            periods = np.empty((len(ts), kb, src.n_ros))
        else:
            window = max(kb, self._SINK_WINDOW_ELEMS // src.n_ros)
            periods = corner[None]
        # histogram hook hoisted out of the loop: one tracer lookup per
        # stream, and the per-block clock reads only happen when tracing
        tr = telemetry.active()
        n_blocks = 0
        with np.errstate(invalid="ignore", divide="ignore"):
            for blo, bhi in src.blocks():
                src.ensure(blo, bhi, columns)
                flush_lo = blo
                for lo in range(blo, bhi, kb):
                    hi = min(lo + kb, bhi)
                    n_blocks += 1
                    telemetry.progress("batch.frequencies", hi, n_chips)
                    if tr is not None:
                        _blk0 = time.perf_counter_ns()
                    # rows of the result, or of the recycled window buffer
                    base = 0 if corner is not None else flush_lo
                    vth_rows = vth[lo:hi]
                    tc_rows = tc[lo:hi] if tc is not None else None
                    for k, subtract in enumerate(subtracts):
                        period_rows = periods[k, lo - base : hi - base]
                        frequency_block_kernel(
                            od_buf[: hi - lo],
                            scratch_buf[: hi - lo],
                            vth_rows,
                            vdd=vdd,
                            neg_alpha=neg_alpha,
                            w_flat=w_flat,
                            period_out=period_rows,
                            tc_rows=tc_rows,
                            tc_coeff=tc_coeff,
                            subtract_aging=(
                                None
                                if subtract is None
                                else lambda od, scratch, s=subtract, lo=lo, hi=hi: s(
                                    od, scratch, lo, hi
                                )
                            ),
                        )
                        finalize_period_block(period_rows)
                    if sinks and (hi - flush_lo >= window or hi == bhi):
                        rows = periods[:, flush_lo - base : hi - base]
                        for sink in sinks:
                            sink(flush_lo, hi, rows)
                        flush_lo = hi
                    if tr is not None:
                        tr.observe(
                            "batch.block_s",
                            (time.perf_counter_ns() - _blk0) / 1e9,
                        )
                # a streaming source drops the block's input pages (and a
                # spilled result's freshly written rows) from the resident set
                src.release(blo, bhi, columns, corner)
        telemetry.count("freq.kernel_blocks", n_blocks)
        if sinks:
            telemetry.count("batch.fused_passes")

    # ---- per-chip views (back-compat) --------------------------------

    @property
    def instances(self) -> List[RoPufInstance]:
        """Thin per-chip views over the fresh population (cached)."""
        if self._instances is None:
            self._instances = [
                self.design.instantiate(self.view.chip(i))
                for i in range(self.n_chips)
            ]
        return self._instances

    @property
    def agings(self) -> List[ChipAging]:
        """Per-chip :class:`ChipAging` views (sliced prefactors, no copy)."""
        return [
            self.aging.chip_aging(i, self.view.chip(i))
            for i in range(self.n_chips)
        ]

    def aged_instances(self, t_years: float) -> List[RoPufInstance]:
        """Every instance rebound to its chip aged by ``t_years``."""
        if t_years == 0:
            return list(self.instances)
        delta = self.aging.delta(t_years)
        return [
            self.design.instantiate(
                Chip(
                    vth=self.view.vth[i] + delta[i],
                    positions=self.view.positions,
                    tc_scale=self.view.tc_scale[i],
                    chip_id=self.view.chip_ids[i],
                )
            )
            for i in range(self.n_chips)
        ]


def make_batch_study(
    design: PufDesign,
    n_chips: int,
    *,
    mission: Optional[MissionProfile] = None,
    idle_policy: Optional[IdlePolicy] = None,
    rng: RngLike = None,
    jobs: int = 1,
    store: str = "ram",
    block_size: Optional[int] = None,
    store_dir: Optional[str] = None,
) -> BatchStudy:
    """Fabricate ``n_chips`` of ``design`` as one batched study.

    Consumes the RNG exactly like :func:`~repro.core.factory.make_study`
    (fabrication children first, then one aging child per chip, NBTI
    prefactors before HCI), so the same seed yields the same silicon for
    every combination of the knobs below: golden responses, aging deltas
    and margin counts are bit-identical, and frequencies agree with the
    per-chip path to rounding.

    * ``store="ram"`` (default) samples the population into RAM;
      ``store="mmap"`` lays down a lazily fabricated
      :class:`~repro.store.store.PopulationStore` under
      ``store_dir/<design name>`` (a temporary directory owned by the
      study when unset) and streams it with bounded RSS.
    * ``jobs > 1`` shards the chip axis over that many worker processes
      (clamped to ``n_chips``); with ``store="mmap"`` the workers attach
      to the one shared store instead of fabricating in RAM.
    * ``block_size`` is the source block in chips: the unit in which
      rows are fabricated (``mmap``) and streamed through the kernel and
      its sinks, and the cap on the kernel's work block.  ``None`` means
      ~2M elements per column block for ``mmap`` and the whole
      population for ``ram``.  Block boundaries never change a result.

    Call :meth:`BatchStudy.close` (or use the study as a context manager)
    to release worker pools and owned store directories.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if store not in ("ram", "mmap"):
        raise ValueError(f"store must be 'ram' or 'mmap', got {store!r}")
    if block_size is not None and block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if n_chips < 1:
        raise ValueError("n_chips must be positive")
    mission = mission or MissionProfile()
    fab_rng, aging_rng = spawn(rng, 2)
    if jobs == 1 and store == "ram":
        with telemetry.span(
            "fabricate.batch_study", n_chips=n_chips, n_ros=design.n_ros
        ):
            population = design.variation_model().sample_population(n_chips, fab_rng)
            simulator = AgingSimulator(
                design.tech, design.cell, mission, idle_policy=idle_policy
            )
            aging = simulator.population_aging(population, aging_rng)
            source = RamColumns(
                PopulationView.from_chips(population), aging, block_size
            )
        return BatchStudy(design, source, mission)
    # The whole population's per-chip keys, derived the way
    # sample_population and PopulationAging.sample would draw them, so a
    # store block or a shard worker replays the serial draws verbatim.
    keys = (spawn_keys(fab_rng, n_chips), spawn_keys(aging_rng, n_chips))
    source = executor = None
    if store == "mmap":
        from ..store.store import open_store_columns

        with telemetry.span(
            "fabricate.store_study", n_chips=n_chips, n_ros=design.n_ros
        ):
            source = open_store_columns(
                design,
                n_chips,
                mission=mission,
                idle_policy=idle_policy,
                keys=keys,
                block_size=block_size,
                store_dir=store_dir,
            )
    if jobs > 1:
        from ..parallel.executor import ShardExecutor

        executor = ShardExecutor(
            design,
            mission,
            idle_policy,
            keys,
            jobs=jobs,
            store_root=None if source is None else str(source.store.root),
            block_size=block_size,
        )
    return BatchStudy(design, source, mission, executor=executor)

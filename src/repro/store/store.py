"""Memory-mapped columnar population store (out-of-core fabrication).

A :class:`PopulationStore` is the on-disk form of what
:class:`~repro.core.population.PopulationView` plus
:class:`~repro.aging.simulator.PopulationAging` hold in RAM: one
``.npy``-backed mmap segment per population column —

* ``vth`` — threshold tensor, ``(n_chips, n_ros, n_stages, 2)`` volts;
* ``tc_scale`` — temperature-coefficient mismatch, same shape;
* ``bti_coeff`` / ``hci_coeff`` — the *folded* aging coefficient
  tensors of :class:`~repro.aging.simulator.PopulationAging` (prefactor
  x Arrhenius x polarity factor), same shape;
* ``bti_dir`` / ``hci_dir`` — the coefficients further folded with the
  mission's duty/transition powers (``PopulationAging``'s ``_bti_dir`` /
  ``_hci_dir``), the form the hot frequency path multiplies by a scalar
  of ``t`` — stored so a sweep pays the folding once at fabrication,
  exactly like the in-RAM engine, instead of once per corner

— fabricated lazily, block-by-block, from the
:func:`repro._rng.spawn_keys` discipline.  The full population's
fabrication and aging key lists are derived **once** at creation and
persisted next to the segments, so materialising chips ``[lo, hi)``
later (in any process, in any order) replays exactly the child streams
a serial :func:`~repro.core.population.make_batch_study` would have
consumed for those rows: every materialised byte is independent of
which blocks were touched before it.

Column segments are created *sparse* at final size and a per-column
block bitmap (``<col>.flags.npy``) records which blocks hold real
bytes; the flag for a block is raised only after its rows are written
and flushed, so readers in other processes never observe half-written
blocks as materialised (re-fabricating a block concurrently writes the
same bytes — the race is benign by determinism).  Columns that an
evaluation never reads (``tc_scale`` at nominal temperature, the aging
coefficients at ``t = 0``) are never fabricated and never cost disk.

The store deliberately knows nothing about frequencies or responses —
:class:`StoreColumns` hands a row window of it to the one engine,
:class:`~repro.core.population.BatchStudy` — and holds no RNG state:
identity lives in ``meta.json`` (a content key digesting the
design/mission fingerprint and the key lists), which is what lets shard
workers attach to the coordinator's segments by path instead of
receiving tensors.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmaplib
import os
import pathlib
import shutil
import tempfile
import time
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .. import telemetry
from .._rng import RngLike, spawn, spawn_keys
from ..telemetry import sampler as _sampler_mod
from ..aging.schedule import IdlePolicy, MissionProfile
from ..aging.simulator import AgingSimulator, CoefficientFold
from ..core.base import PufDesign
from ..parallel.cache import ResultCache, cache_key

PathLike = Union[str, pathlib.Path]

#: layout version of the on-disk store, bumped on format changes
STORE_FORMAT = 1

#: columns fabricated from the *fabrication* key of a chip
FAB_COLUMNS = ("vth", "tc_scale")
#: columns fabricated from the *aging* key of a chip.  The ``_coeff``
#: pair keeps the exact grouping the mechanism-attribution path needs;
#: the ``_dir`` pair is the same data pre-multiplied by the mission's
#: duty/transition powers for the hot frequency path.  An evaluation
#: materialises only the pair it reads, so a plain aging sweep never
#: pays disk for the raw coefficients (nor vice versa).
AGING_COLUMNS = ("bti_coeff", "hci_coeff", "bti_dir", "hci_dir")
#: every column, in canonical order
COLUMNS = FAB_COLUMNS + AGING_COLUMNS

#: default block granularity in per-column tensor elements (~16 MiB of
#: float64 per column block at the paper's 256-RO geometry): big enough
#: to amortise the per-block Python overhead, small enough that a
#: handful of in-flight blocks stays far below the RSS budget
DEFAULT_BLOCK_ELEMS = 2_000_000

_GRAN = _mmaplib.ALLOCATIONGRANULARITY


def default_block_size(n_ros: int, n_stages: int) -> int:
    """Chips per block for the default ~16 MiB column-block budget."""
    per_chip = int(n_ros) * int(n_stages) * 2
    return max(1, DEFAULT_BLOCK_ELEMS // per_chip)


def _design_fingerprint(
    design: PufDesign,
    mission: MissionProfile,
    idle_policy: Optional[IdlePolicy],
    n_chips: int,
) -> Dict[str, object]:
    """The JSON-stable identity of what the store's bytes depend on.

    Everything that changes a stored value must appear here; knobs that
    only change how fast the values are produced (block size, jobs) must
    not.  ``CellDescriptor`` is fingerprinted field-by-field because its
    ``_builder`` callable repr carries a memory address; pairing and
    readout are *excluded* — they shape responses, not the stored
    process/aging columns.
    """
    cell = design.cell
    return {
        "format": STORE_FORMAT,
        "design": {
            "name": design.name,
            "n_ros": design.n_ros,
            "n_stages": design.n_stages,
            "tech": repr(design.tech),
            "layout": str(design.layout),
            "cell": {
                "kind": str(cell.kind),
                "n_stages": cell.n_stages,
                "stage0_penalty": cell.stage0_penalty,
                "c_load_factor": cell.c_load_factor,
                "idle_inputs": sorted(cell.idle_inputs.items()),
                "active_inputs": sorted(cell.active_inputs.items()),
            },
        },
        "mission": repr(mission),
        "idle_policy": str(idle_policy),
        "n_chips": int(n_chips),
    }


def _content_key(fingerprint: Dict[str, object], keys_digest: str) -> str:
    blob = json.dumps(
        {"fingerprint": fingerprint, "keys_sha256": keys_digest},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _keys_digest(fab_keys: np.ndarray, aging_keys: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(fab_keys).tobytes())
    digest.update(np.ascontiguousarray(aging_keys).tobytes())
    return digest.hexdigest()


def _row_byte_span(mm: np.memmap, lo: int, hi: int) -> Tuple[int, int]:
    """Page-aligned ``(start, length)`` of rows ``[lo, hi)`` inside the
    underlying ``mmap`` buffer (which starts at the granularity-aligned
    file offset below the array data)."""
    row_nbytes = mm.strides[0]
    data0 = mm.offset % _GRAN
    start = data0 + lo * row_nbytes
    stop = data0 + hi * row_nbytes
    aligned_start = (start // _GRAN) * _GRAN
    aligned_stop = min(-(-stop // _GRAN) * _GRAN, len(mm._mmap))
    return aligned_start, max(0, aligned_stop - aligned_start)


def flush_rows(mm: np.memmap, lo: int, hi: int) -> None:
    """msync rows ``[lo, hi)`` of a writable memmap to the file."""
    start, length = _row_byte_span(mm, lo, hi)
    if length:
        mm._mmap.flush(start, length)


def release_rows(mm: np.memmap, lo: int, hi: int) -> None:
    """Drop rows ``[lo, hi)`` from the process's resident set.

    ``MADV_DONTNEED`` on a shared file mapping unmaps the PTEs without
    touching the page cache, so the data stays warm for re-reads while
    the pages stop counting against this process's RSS — the mechanism
    that keeps a million-chip sweep under the memory gate.  No-op where
    the platform lacks ``madvise`` (the sweep still works, just with the
    OS deciding eviction).
    """
    if not hasattr(_mmaplib, "MADV_DONTNEED"):  # pragma: no cover
        return
    start, length = _row_byte_span(mm, lo, hi)
    if length:
        try:
            mm._mmap.madvise(_mmaplib.MADV_DONTNEED, start, length)
        except (AttributeError, OSError):  # pragma: no cover - best effort
            pass


class PopulationStore:
    """Columnar, block-lazily-fabricated population segments on disk.

    Construct through :meth:`create` (derives and persists the key
    lists; reuses a matching existing store in place) or :meth:`attach`
    (maps an existing store after verifying its identity against the
    supplied design/mission).  All processes attached to one root see
    one coherent population: segments are shared file mappings and the
    block bitmaps are only raised after a flush.
    """

    def __init__(
        self,
        root: PathLike,
        *,
        design: PufDesign,
        mission: MissionProfile,
        idle_policy: Optional[IdlePolicy],
        n_chips: int,
        block_size: int,
        fab_keys: np.ndarray,
        aging_keys: np.ndarray,
        content_key: str,
    ):
        self.root = pathlib.Path(root)
        self.design = design
        self.mission = mission
        self.idle_policy = idle_policy
        self.n_chips = int(n_chips)
        self.block_size = int(block_size)
        self.n_blocks = -(-self.n_chips // self.block_size)
        self.content_key = content_key
        self._fab_keys = fab_keys
        self._aging_keys = aging_keys
        self._model = design.variation_model()
        self._simulator = AgingSimulator(
            design.tech, design.cell, mission, idle_policy=idle_policy
        )
        # the coefficient folding PopulationAging.__init__ applies, so the
        # stored columns are bit-identical to the in-RAM tensors; its
        # unfolded ``duty`` / ``tpy`` back the mechanism path's
        # ``(duty * t)**n``, the exact grouping of
        # PopulationAging.delta_components
        self.fold = CoefficientFold(design.tech, self._simulator.stress, mission)
        self._cols: Dict[str, np.memmap] = {}
        self._flags: Dict[str, np.memmap] = {}
        self._closed = False
        # Expose the fabrication bitmap to the resource sampler: with
        # --sample-rss an out-of-core sweep's fault-in behaviour becomes
        # a counter track next to the RSS curve.  Registration is
        # unconditional (the registry is a dict write); the probe only
        # runs while a sampler thread is ticking.
        self._probe_name = f"store.materialised_blocks:{self.root.name}"
        _sampler_mod.register_probe(self._probe_name, self._count_materialised)

    def _count_materialised(self) -> float:
        """Total materialised (column, block) segments right now."""
        if self._closed:
            return 0.0
        return float(
            sum(np.count_nonzero(self._flag_map(c)) for c in COLUMNS)
        )

    # ---- construction ------------------------------------------------

    @classmethod
    def create(
        cls,
        root: PathLike,
        design: PufDesign,
        n_chips: int,
        *,
        mission: Optional[MissionProfile] = None,
        idle_policy: Optional[IdlePolicy] = None,
        rng: RngLike = None,
        keys: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
        block_size: Optional[int] = None,
    ) -> "PopulationStore":
        """Create (or adopt) the store for one population at ``root``.

        Consumes ``rng`` exactly like
        :func:`~repro.core.population.make_batch_study` — ``fab_rng,
        aging_rng = spawn(rng, 2)``, then one full-population
        :func:`~repro._rng.spawn_keys` draw from each — unless ``keys``
        supplies pre-derived ``(fab_keys, aging_keys)`` (the parallel
        engine already holds them).  If ``root`` contains a store with
        the same content key it is adopted as-is, keeping its segments,
        bitmaps and block size; a mismatching store is an error, never
        silently overwritten.
        """
        if n_chips <= 0:
            raise ValueError("n_chips must be positive")
        mission = mission or MissionProfile()
        if keys is None:
            fab_rng, aging_rng = spawn(rng, 2)
            fab_keys = np.asarray(spawn_keys(fab_rng, n_chips), dtype=np.int64)
            aging_keys = np.asarray(spawn_keys(aging_rng, n_chips), dtype=np.int64)
        else:
            fab_keys = np.asarray(list(keys[0]), dtype=np.int64)
            aging_keys = np.asarray(list(keys[1]), dtype=np.int64)
            if fab_keys.shape != (n_chips,) or aging_keys.shape != (n_chips,):
                raise ValueError("keys must supply one fab and one aging key per chip")
        fingerprint = _design_fingerprint(design, mission, idle_policy, n_chips)
        content_key = _content_key(fingerprint, _keys_digest(fab_keys, aging_keys))
        if block_size is None:
            block_size = default_block_size(design.n_ros, design.n_stages)
        if block_size < 1:
            raise ValueError("block_size must be >= 1")

        root = pathlib.Path(root)
        meta_path = root / "meta.json"
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            if meta.get("content_key") != content_key:
                raise ValueError(
                    f"{root} already holds a different population "
                    f"(content key mismatch); refusing to overwrite"
                )
            block_size = int(meta["block_size"])
            return cls(
                root,
                design=design,
                mission=mission,
                idle_policy=idle_policy,
                n_chips=n_chips,
                block_size=block_size,
                fab_keys=fab_keys,
                aging_keys=aging_keys,
                content_key=content_key,
            )

        root.mkdir(parents=True, exist_ok=True)
        np.save(root / "fab_keys.npy", fab_keys)
        np.save(root / "aging_keys.npy", aging_keys)
        n_blocks = -(-n_chips // block_size)
        shape = (n_chips, design.n_ros, design.n_stages, 2)
        for name in COLUMNS:
            # sparse at final size: ftruncate allocates no blocks, so an
            # unread column never costs disk
            seg = np.lib.format.open_memmap(
                root / f"{name}.npy", mode="w+", dtype=np.float64, shape=shape
            )
            del seg
            flags = np.lib.format.open_memmap(
                root / f"{name}.flags.npy",
                mode="w+",
                dtype=np.uint8,
                shape=(n_blocks,),
            )
            flags[:] = 0
            flags.flush()
            del flags
        meta = {
            "format": STORE_FORMAT,
            "content_key": content_key,
            "fingerprint": fingerprint,
            "n_chips": int(n_chips),
            "block_size": int(block_size),
            "columns": list(COLUMNS),
        }
        tmp = meta_path.with_name(meta_path.name + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")
        os.replace(tmp, meta_path)
        return cls(
            root,
            design=design,
            mission=mission,
            idle_policy=idle_policy,
            n_chips=n_chips,
            block_size=block_size,
            fab_keys=fab_keys,
            aging_keys=aging_keys,
            content_key=content_key,
        )

    @classmethod
    def attach(
        cls,
        root: PathLike,
        design: PufDesign,
        *,
        mission: Optional[MissionProfile] = None,
        idle_policy: Optional[IdlePolicy] = None,
    ) -> "PopulationStore":
        """Map an existing store, verifying it is *this* population.

        Workers call this with the design/mission from their shard spec;
        the recomputed fingerprint plus the persisted key lists must
        reproduce the stored content key, so attaching to the wrong
        store (or a corrupted one) fails loudly instead of silently
        evaluating someone else's silicon.
        """
        root = pathlib.Path(root)
        meta_path = root / "meta.json"
        if not meta_path.exists():
            raise FileNotFoundError(f"no population store at {root}")
        meta = json.loads(meta_path.read_text())
        if meta.get("format") != STORE_FORMAT:
            raise ValueError(
                f"store format {meta.get('format')!r} != {STORE_FORMAT}"
            )
        mission = mission or MissionProfile()
        n_chips = int(meta["n_chips"])
        fab_keys = np.load(root / "fab_keys.npy")
        aging_keys = np.load(root / "aging_keys.npy")
        fingerprint = _design_fingerprint(design, mission, idle_policy, n_chips)
        content_key = _content_key(fingerprint, _keys_digest(fab_keys, aging_keys))
        if content_key != meta.get("content_key"):
            raise ValueError(
                f"store at {root} does not match the supplied design/mission "
                "(content key mismatch)"
            )
        return cls(
            root,
            design=design,
            mission=mission,
            idle_policy=idle_policy,
            n_chips=n_chips,
            block_size=int(meta["block_size"]),
            fab_keys=fab_keys,
            aging_keys=aging_keys,
            content_key=content_key,
        )

    # ---- segments ----------------------------------------------------

    def column(self, name: str) -> np.memmap:
        """The shared writable mapping of one column segment."""
        if name not in COLUMNS:
            raise KeyError(f"unknown column {name!r}")
        mm = self._cols.get(name)
        if mm is None:
            mm = np.load(self.root / f"{name}.npy", mmap_mode="r+")
            self._cols[name] = mm
        return mm

    def _flag_map(self, name: str) -> np.memmap:
        mm = self._flags.get(name)
        if mm is None:
            mm = np.load(self.root / f"{name}.flags.npy", mmap_mode="r+")
            self._flags[name] = mm
        return mm

    def materialised_blocks(self, name: str) -> int:
        """How many blocks of ``name`` hold fabricated bytes (testing aid)."""
        return int(np.count_nonzero(self._flag_map(name)))

    # ---- fabrication -------------------------------------------------

    def ensure_rows(self, start: int, stop: int, columns: Iterable[str]) -> None:
        """Materialise every block overlapping rows ``[start, stop)``.

        Only the named ``columns`` are fabricated (and only where their
        block flag is still down); a later call needing another column of
        the same rows replays the same chip draws and fills just the
        missing segment — the spawn-key discipline makes the replay
        byte-identical.
        """
        if not 0 <= start <= stop <= self.n_chips:
            raise ValueError(f"rows [{start}, {stop}) outside 0..{self.n_chips}")
        columns = [c for c in COLUMNS if c in set(columns)]
        if start == stop or not columns:
            return
        first = start // self.block_size
        last = (stop - 1) // self.block_size
        for block in range(first, last + 1):
            self._ensure_block(block, columns)

    def _ensure_block(self, block: int, columns: Sequence[str]) -> None:
        fab_needed = [
            c for c in FAB_COLUMNS if c in columns and not self._flag_map(c)[block]
        ]
        aging_needed = [
            c for c in AGING_COLUMNS if c in columns and not self._flag_map(c)[block]
        ]
        if not fab_needed and not aging_needed:
            return
        lo = block * self.block_size
        hi = min(lo + self.block_size, self.n_chips)
        t0 = time.perf_counter_ns() if telemetry.enabled() else 0
        with telemetry.span(
            "store.materialise_block",
            block=block,
            n_chips=hi - lo,
            columns=",".join(fab_needed + aging_needed),
        ):
            if fab_needed:
                self._fabricate_process(lo, hi, fab_needed)
            if aging_needed:
                self._fabricate_aging(lo, hi, aging_needed)
        telemetry.count("store.blocks_materialised")
        if t0:
            telemetry.observe(
                "store.fabricate_block_s", (time.perf_counter_ns() - t0) / 1e9
            )

    def _fabricate_process(self, lo: int, hi: int, columns: Sequence[str]) -> None:
        """Fabricate rows ``[lo, hi)`` from their fabrication keys
        (:meth:`VariationModel.fabricate_block`).

        The block is assembled in private buffers and copied in whole:
        ``fabricate_block`` fills its outputs in several passes, and a
        worker re-fabricating a block another has already published must
        only ever write the published bytes.
        """
        cols = {name: self.column(name) for name in columns}
        vth = self._scratch(lo, hi)
        tc_scale = self._scratch(lo, hi) if "tc_scale" in cols else None
        self._model.fabricate_block(self._fab_keys[lo:hi], vth, tc_scale)
        if "vth" in cols:
            cols["vth"][lo:hi] = vth
        if tc_scale is not None:
            cols["tc_scale"][lo:hi] = tc_scale
        self._publish(cols, lo, hi)

    def _fabricate_aging(self, lo: int, hi: int, columns: Sequence[str]) -> None:
        """Sample rows ``[lo, hi)``'s prefactors from their aging keys
        (:meth:`AgingSimulator.fabricate_block`) and fold them into the
        requested columns through :class:`CoefficientFold`, exactly as
        :class:`~repro.aging.simulator.PopulationAging` folds its tensors.
        Each fold writes its column's final bytes in one pass.
        """
        cols = {name: self.column(name) for name in columns}
        nbti_a, hci_b = self._scratch(lo, hi), self._scratch(lo, hi)
        self._simulator.fabricate_block(self._aging_keys[lo:hi], nbti_a, hci_b)
        for mech, prefactors, fold_coeff, fold_dir in (
            ("bti", nbti_a, self.fold.bti_coeff, self.fold.bti_dir),
            ("hci", hci_b, self.fold.hci_coeff, self.fold.hci_dir),
        ):
            coeff_col = cols.get(f"{mech}_coeff")
            dir_col = cols.get(f"{mech}_dir")
            if coeff_col is None and dir_col is None:
                continue
            coeff = fold_coeff(
                prefactors, prefactors if coeff_col is None else coeff_col[lo:hi]
            )
            if dir_col is not None:
                fold_dir(coeff, out=dir_col[lo:hi])
        self._publish(cols, lo, hi)

    def _scratch(self, lo: int, hi: int) -> np.ndarray:
        return np.empty((hi - lo, self.design.n_ros, self.design.n_stages, 2))

    def _publish(self, cols: Dict[str, np.memmap], lo: int, hi: int) -> None:
        """Flush fabricated rows, drop them from RSS, raise the flags."""
        block = lo // self.block_size
        for name, mm in cols.items():
            flush_rows(mm, lo, hi)
            release_rows(mm, lo, hi)
            flags = self._flag_map(name)
            flags[block] = 1
            flags.flush()

    # ---- read-side RSS control ---------------------------------------

    def release(self, columns: Iterable[str], lo: int, hi: int) -> None:
        """Drop rows ``[lo, hi)`` of the named columns from this
        process's resident set (see :func:`release_rows`)."""
        for name in columns:
            mm = self._cols.get(name)
            if mm is not None:
                release_rows(mm, lo, hi)

    # ---- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Drop every mapping (idempotent).  The files stay on disk —
        directory ownership/cleanup belongs to whoever created the root."""
        if self._closed:
            return
        self._closed = True
        _sampler_mod.unregister_probe(self._probe_name)
        self._cols.clear()
        self._flags.clear()

    def __enter__(self) -> "PopulationStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PopulationStore {str(self.root)!r} n_chips={self.n_chips} "
            f"block_size={self.block_size}>"
        )


def remove_store(root: PathLike) -> None:
    """Delete a store directory created by :meth:`PopulationStore.create`
    (missing is fine — cleanup paths race with nothing)."""
    shutil.rmtree(root, ignore_errors=True)


class StoreColumns:
    """A row window of a :class:`PopulationStore` as a column source.

    The out-of-core counterpart of
    :class:`~repro.core.population.RamColumns`:
    :class:`~repro.core.population.BatchStudy` streams the window block
    by block — materialising each store block on first touch, running
    it through the shared kernel, then dropping its pages from the
    resident set — so peak RSS is a handful of block-sized buffers
    regardless of population size.  Rows are window-relative (row 0 is
    chip ``row_start``); shard workers each take one window over the
    *shared* segments, so a shard never re-fabricates or pickles a
    tensor.

    Bit-identity with the in-RAM source holds by construction: the store
    fabricates from the same spawn keys with the same draw order, the
    kernel is the same function, and the aging subtraction uses the same
    factored grouping as
    :meth:`~repro.aging.simulator.PopulationAging.subtract_delta_into`
    (coefficient x duty-power, then the scalar time power).  A golden
    pass skips a saturation clip when the kernel block's column maximum
    proves it a no-op: IEEE rounding is monotone, so ``max(x) * t**n <=
    cap`` means every ``x * t**n <= cap``, and skipping vs applying the
    clip can never change a byte.  The maxima are taken once per kernel
    block and shared by every year a sweep evaluates on it.

    ``spill`` (a :class:`~repro.parallel.cache.ResultCache`) takes the
    study's frequency corners to disk when the window streams; the study
    deletes ``own_root`` on close when it owns the store directory.
    """

    #: resident-set budget (bytes) above which the window streams: column
    #: and result pages are flushed and madvise(DONTNEED)-released after
    #: every block, and corners spill.  Windows that fit the budget skip
    #: the release (the refaults would cost more than the pages) and run
    #: at in-RAM speed.
    RESIDENT_BUDGET_BYTES = 256 * 2**20

    def __init__(
        self,
        store: PopulationStore,
        *,
        row_start: int = 0,
        row_stop: Optional[int] = None,
        spill: Optional[ResultCache] = None,
        own_root: Optional[pathlib.Path] = None,
    ):
        row_stop = store.n_chips if row_stop is None else int(row_stop)
        if not 0 <= row_start < row_stop <= store.n_chips:
            raise ValueError(
                f"row window [{row_start}, {row_stop}) outside the store's "
                f"0..{store.n_chips}"
            )
        self.store = store
        self.spill = spill
        self._own_root = own_root
        self._rows = (int(row_start), row_stop)
        self._closed = False
        self._max_memo: Dict[str, tuple] = {}
        self.n_chips = row_stop - int(row_start)
        self.n_ros = store.design.n_ros
        self.n_stages = store.design.n_stages
        self.block_size = store.block_size
        # Stream only when this window's worst-case resident bytes exceed
        # the budget.  At most 4 columns are resident in any one pass
        # (vth, tc_scale, bti_dir, hci_dir — the raw *_coeff pair only
        # backs the mechanism path, which reads one of them at a time),
        # plus one frequency corner.  Numerics are unaffected either way:
        # madvise on a MAP_SHARED file mapping never loses data.
        per_chip = self.n_ros * self.n_stages * 2 * 8
        window_bytes = self.n_chips * (per_chip * 4 + self.n_ros * 8)
        self.streaming = window_bytes > self.RESIDENT_BUDGET_BYTES

    def column(self, name: str) -> np.memmap:
        r0, r1 = self._rows
        return self.store.column(name)[r0:r1]

    def blocks(self) -> list:
        """Store-block-aligned window-relative ``(lo, hi)`` row ranges."""
        r0, r1 = self._rows
        bs = self.block_size
        out = []
        lo = r0
        while lo < r1:
            hi = min(r1, (lo // bs + 1) * bs)
            out.append((lo - r0, hi - r0))
            lo = hi
        return out

    def ensure(self, lo: int, hi: int, columns: Sequence[str]) -> None:
        r0 = self._rows[0]
        self.store.ensure_rows(r0 + lo, r0 + hi, columns)

    def release(self, lo: int, hi: int, columns: Sequence[str], out=None) -> None:
        """When streaming, drop rows ``[lo, hi)`` of the named columns and
        of a spilled result ``out`` from the resident set."""
        if not self.streaming:
            return
        r0 = self._rows[0]
        self.store.release(columns, r0 + lo, r0 + hi)
        if isinstance(out, np.memmap):
            flush_rows(out, lo, hi)
            release_rows(out, lo, hi)

    def subtracter(self, t: float, mechanism: Optional[str] = None):
        """``(subtract(od, scratch, lo, hi), columns)`` for one pass at ``t``.

        The golden path reads the duty-folded ``*_dir`` columns; a
        mechanism pass reads one raw ``*_coeff`` column and applies the
        exact :meth:`~repro.aging.simulator.PopulationAging.delta_components`
        grouping ``coeff * (duty * t)**n``.
        """
        tech = self.store.design.tech
        if mechanism is None:
            terms = [
                (name, self.column(name), scale, cap)
                for name, scale, cap in (
                    ("bti_dir", t ** tech.nbti.n, tech.nbti.max_shift),
                    ("hci_dir", t ** tech.hci.m, tech.hci.max_shift),
                )
            ]

            def subtract(od, scratch, lo, hi):
                for name, column, scale, cap in terms:
                    rows = column[lo:hi]
                    np.multiply(rows, scale, out=scratch)
                    if self._block_max(name, rows, lo, hi) * scale > cap:
                        telemetry.count("aging.clip_applied")
                        np.minimum(scratch, cap, out=scratch)
                    else:
                        telemetry.count("aging.clip_skipped")
                    od -= scratch

            return subtract, ("bti_dir", "hci_dir")
        if mechanism == "bti":
            pow_mech = np.power(self.store.fold.duty * t, tech.nbti.n)
            cap = tech.nbti.max_shift
        else:
            pow_mech = np.power(
                (self.store.fold.tpy * t) / tech.hci.ref_transitions, tech.hci.m
            )
            cap = tech.hci.max_shift
        name = f"{mechanism}_coeff"
        coeff = self.column(name)

        def subtract(od, scratch, lo, hi):
            np.multiply(coeff[lo:hi], pow_mech, out=scratch)
            np.minimum(scratch, cap, out=scratch)
            od -= scratch

        return subtract, (name,)

    def _block_max(self, name: str, rows: np.ndarray, lo: int, hi: int) -> float:
        """Maximum of ``rows`` (column ``name`` over ``[lo, hi)``),
        remembered for the last block asked per column: a sweep asks once
        per year, and a materialised block never changes."""
        last = self._max_memo.get(name)
        if last is None or last[0] != (lo, hi):
            last = ((lo, hi), float(rows.max()))
            self._max_memo[name] = last
        return last[1]

    def spill_key(self, key: tuple, design: PufDesign) -> str:
        """Content address of one corner of this window in the spill cache."""
        t, cond = key[0], key[1]
        config = {
            "store": self.store.content_key,
            "rows": list(self._rows),
            "t_years": t,
            "temperature_k": cond.temperature_k,
            "vdd": cond.vdd,
            "mechanism": key[2] if len(key) > 2 else None,
            "pairing": repr(design.pairing),
            "readout": repr(design.readout),
        }
        return cache_key("store.frequencies", config)

    def close(self) -> None:
        """Release mappings; delete the store root if this source owns it."""
        if self._closed:
            return
        self._closed = True
        self.store.close()
        if self._own_root is not None:
            remove_store(self._own_root)


def open_store_columns(
    design: PufDesign,
    n_chips: int,
    *,
    mission: MissionProfile,
    idle_policy: Optional[IdlePolicy] = None,
    keys: Tuple[Sequence[int], Sequence[int]],
    block_size: Optional[int] = None,
    store_dir: Optional[PathLike] = None,
) -> StoreColumns:
    """Create (or adopt) a store and return its whole-population source.

    Without ``store_dir`` the segments live in a temp directory owned by
    the source and removed on :meth:`StoreColumns.close`.  With it they
    persist in ``store_dir/<design name>``, so the designs of one run
    (RO-PUF and ARO-PUF) never share a root; a store already there is
    adopted when its content key matches and refused otherwise, which
    makes repeated million-chip sweeps incremental.  Spilled corners
    live next to the segments, under ``spill/``.
    """
    own_root: Optional[pathlib.Path] = None
    if store_dir is None:
        root = own_root = pathlib.Path(tempfile.mkdtemp(prefix="repro-store-"))
    else:
        root = pathlib.Path(store_dir) / design.name
    store = PopulationStore.create(
        root,
        design,
        n_chips,
        mission=mission,
        idle_policy=idle_policy,
        keys=keys,
        block_size=block_size,
    )
    return StoreColumns(store, spill=ResultCache(root / "spill"), own_root=own_root)

"""Memory-mapped columnar population store (out-of-core fabrication).

A :class:`PopulationStore` is the on-disk form of what
:class:`~repro.variation.chip.PopulationView` plus
:class:`~repro.aging.simulator.PopulationAging` hold in RAM: one
``.npy``-backed mmap segment per population column —

* ``vth`` — threshold tensor, ``(n_chips, n_ros, n_stages, 2)`` volts;
* ``tc_scale`` — temperature-coefficient mismatch, same shape;
* ``bti_coeff`` / ``hci_coeff`` — the *folded* aging coefficient
  tensors of :class:`~repro.aging.simulator.PopulationAging` (prefactor
  x Arrhenius x polarity factor), same shape;
* ``bti_dir`` / ``hci_dir`` — the coefficients further folded with the
  mission's duty/transition powers (``PopulationAging``'s ``bti_dir`` /
  ``hci_dir``), the form the hot frequency path multiplies by a scalar
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
(and released from the writer's resident set), so readers in other
processes never observe half-written blocks as materialised
(re-fabricating a block concurrently writes the same bytes — the race is
benign by determinism).  Shard workers share the segments as file
mappings, which are coherent without ``msync``; only a named
(``durable``) store, which a later run can re-attach, flushes a block's
rows and then its flag to the file.  Every segment and bitmap is
length-checked against its ``.npy`` header before it is mapped, so a
truncated file is refused instead of read back as zeros.  Columns that
an evaluation never reads (``tc_scale`` at nominal temperature, the
aging coefficients at ``t = 0``) are never fabricated and never cost
disk.

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
from .._rng import RngLike, as_generators, spawn, spawn_keys
from ..telemetry import sampler as _sampler_mod
from ..aging.schedule import IdlePolicy, MissionProfile
from ..aging.simulator import AgingSimulator, CoefficientFold
from ..core.base import PufDesign

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

#: sub-block of fabrication inside a store block, in tensor elements:
#: about the kernel's work-buffer size (``BatchStudy._BLOCK_ELEMS``), so
#: a block is assembled sub-block by sub-block in two reused private
#: buffers that stay cache-resident, instead of in block-sized ones that
#: are allocated and page-faulted afresh for every block
FAB_SUBBLOCK_ELEMS = 48_000

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


class StoreError(ValueError):
    """A store on disk is malformed, damaged or holds another population.

    The message names the file or directory.  ``repro run`` reports it as
    one ``error: ...`` line and exits 2.
    """


def _read_meta(path: pathlib.Path) -> dict:
    """A store's parsed ``meta.json``, refused unless it is well formed.

    Every refusal is a :class:`StoreError` naming the file: undecodable
    JSON, a non-object, a wrong ``format``, or an ``n_chips`` /
    ``block_size`` that is missing or not a positive integer.
    """
    try:
        meta = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise StoreError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise StoreError(f"{path} holds a {type(meta).__name__}, not an object")
    if meta.get("format") != STORE_FORMAT:
        raise StoreError(
            f"{path}: store format {meta.get('format')!r} != {STORE_FORMAT}"
        )
    for key in ("n_chips", "block_size"):
        value = meta.get(key)
        if type(value) is not int or value < 1:
            raise StoreError(
                f"{path}: {key} must be a positive integer, got {value!r}"
            )
    return meta


def _map_npy(path: pathlib.Path) -> np.memmap:
    """Map a store ``.npy`` file read-write after checking its length.

    ``np.load(mmap_mode="r+")`` maps what the header's shape asks for and
    grows a short file with zeros, so a truncated segment would read
    back as zero-valued chips.  The file must be exactly its header plus
    the data the header describes; anything else raises
    :class:`StoreError`.
    """
    fmt = np.lib.format
    with open(path, "rb") as fh:
        actual = os.fstat(fh.fileno()).st_size
        try:
            version = fmt.read_magic(fh)
            read_header = {
                (1, 0): fmt.read_array_header_1_0,
                (2, 0): fmt.read_array_header_2_0,
            }[version]
            shape, _, dtype = read_header(fh)
        except (KeyError, ValueError) as exc:
            raise StoreError(
                f"{path} is {actual} bytes with no readable .npy header "
                f"({exc}); the store is damaged"
            ) from None
        expected = fh.tell() + int(np.prod(shape)) * dtype.itemsize
    if actual != expected:
        raise StoreError(
            f"{path} is {actual} bytes, but its .npy header describes "
            f"{expected} bytes; the store is damaged"
        )
    return np.load(path, mmap_mode="r+")


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
    block bitmaps are only raised after a block's rows are written.
    ``durable`` (recorded in ``meta.json``, so attached workers inherit
    it) is whether the store outlives its run: only then are rows and
    bitmaps flushed to the file.
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
        durable: bool,
    ):
        self.root = pathlib.Path(root)
        self.design = design
        self.mission = mission
        self.idle_policy = idle_policy
        self.n_chips = int(n_chips)
        self.block_size = int(block_size)
        self.n_blocks = -(-self.n_chips // self.block_size)
        self.content_key = content_key
        self.durable = bool(durable)
        self._fab_keys = fab_keys
        self._aging_keys = aging_keys
        self._model = design.variation_model()
        self._simulator = AgingSimulator(
            design.tech, design.cell, mission, idle_policy=idle_policy
        )
        # the coefficient folding PopulationAging.__init__ applies, so the
        # stored columns are bit-identical to the in-RAM tensors
        self.fold = CoefficientFold(design.tech, self._simulator.stress, mission)
        self._cols: Dict[str, np.memmap] = {}
        self._flags: Dict[str, np.memmap] = {}
        per_chip = design.n_ros * design.n_stages * 2
        self._sub_rows = max(1, FAB_SUBBLOCK_ELEMS // per_chip)
        self._fab_buffers: Optional[Tuple[np.ndarray, np.ndarray]] = None
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
        durable: bool = True,
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
        silently overwritten.  ``durable=False`` marks a store its owner
        deletes at the end of the run: nobody can re-attach it, so it is
        never flushed.
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
            if _read_meta(meta_path).get("content_key") != content_key:
                raise StoreError(
                    f"{root} already holds a different population "
                    f"(content key mismatch); refusing to overwrite"
                )
            return cls.attach(root, design, mission=mission, idle_policy=idle_policy)

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
            if durable:
                flags.flush()
            del flags
        meta = {
            "format": STORE_FORMAT,
            "content_key": content_key,
            "fingerprint": fingerprint,
            "n_chips": int(n_chips),
            "block_size": int(block_size),
            "columns": list(COLUMNS),
            "durable": bool(durable),
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
            durable=durable,
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
        meta = _read_meta(meta_path)
        mission = mission or MissionProfile()
        n_chips = meta["n_chips"]
        fab_keys = np.load(root / "fab_keys.npy")
        aging_keys = np.load(root / "aging_keys.npy")
        fingerprint = _design_fingerprint(design, mission, idle_policy, n_chips)
        content_key = _content_key(fingerprint, _keys_digest(fab_keys, aging_keys))
        if content_key != meta.get("content_key"):
            raise StoreError(
                f"store at {root} does not match the supplied design/mission "
                "(content key mismatch)"
            )
        return cls(
            root,
            design=design,
            mission=mission,
            idle_policy=idle_policy,
            n_chips=n_chips,
            block_size=meta["block_size"],
            fab_keys=fab_keys,
            aging_keys=aging_keys,
            content_key=content_key,
            durable=meta.get("durable", True),
        )

    # ---- segments ----------------------------------------------------

    def column(self, name: str) -> np.memmap:
        """The shared writable mapping of one column segment."""
        if name not in COLUMNS:
            raise KeyError(f"unknown column {name!r}")
        mm = self._cols.get(name)
        if mm is None:
            mm = _map_npy(self.root / f"{name}.npy")
            self._cols[name] = mm
        return mm

    def _flag_map(self, name: str) -> np.memmap:
        mm = self._flags.get(name)
        if mm is None:
            mm = _map_npy(self.root / f"{name}.flags.npy")
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

        The block's streams are seeded once; each sub-block is assembled
        in the reused private buffers and copied in whole:
        ``fabricate_block`` fills its outputs in several passes, and a
        worker re-fabricating a block another has already published must
        only ever write the published bytes.
        """
        cols = {name: self.column(name) for name in columns}
        vth_col, tc_col = cols.get("vth"), cols.get("tc_scale")
        gens = as_generators(self._fab_keys[lo:hi])
        for s, e in self._sub_blocks(lo, hi):
            vth, tc_scale = self._buffers(e - s)
            if tc_col is None:
                tc_scale = None
            self._model.fabricate_block(gens[s - lo : e - lo], vth, tc_scale)
            if vth_col is not None:
                vth_col[s:e] = vth
            if tc_col is not None:
                tc_col[s:e] = tc_scale
        self._publish(cols, lo, hi)

    def _fabricate_aging(self, lo: int, hi: int, columns: Sequence[str]) -> None:
        """Sample rows ``[lo, hi)``'s prefactors from their aging keys
        (:meth:`AgingSimulator.fabricate_block`) and fold them into the
        requested columns through :class:`CoefficientFold`, exactly as
        :class:`~repro.aging.simulator.PopulationAging` folds its tensors.
        Sub-block by sub-block, each fold writes its column's final bytes
        in one pass from the private prefactor buffers.
        """
        cols = {name: self.column(name) for name in columns}
        gens = as_generators(self._aging_keys[lo:hi])
        for s, e in self._sub_blocks(lo, hi):
            nbti_a, hci_b = self._buffers(e - s)
            self._simulator.fabricate_block(gens[s - lo : e - lo], nbti_a, hci_b)
            for mech, prefactors, fold_coeff, fold_dir in (
                ("bti", nbti_a, self.fold.bti_coeff, self.fold.bti_dir),
                ("hci", hci_b, self.fold.hci_coeff, self.fold.hci_dir),
            ):
                coeff_col = cols.get(f"{mech}_coeff")
                dir_col = cols.get(f"{mech}_dir")
                if coeff_col is None and dir_col is None:
                    continue
                coeff = fold_coeff(
                    prefactors, prefactors if coeff_col is None else coeff_col[s:e]
                )
                if dir_col is not None:
                    fold_dir(coeff, out=dir_col[s:e])
        self._publish(cols, lo, hi)

    def _sub_blocks(self, lo: int, hi: int) -> Iterable[Tuple[int, int]]:
        """Rows ``[lo, hi)`` in fabrication sub-blocks of ``_sub_rows``."""
        for s in range(lo, hi, self._sub_rows):
            yield s, min(s + self._sub_rows, hi)

    def _buffers(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The first ``n`` rows of the two reused private fabrication
        buffers (allocated on first use, ``_sub_rows`` chips each)."""
        if self._fab_buffers is None:
            shape = (self._sub_rows, self.design.n_ros, self.design.n_stages, 2)
            self._fab_buffers = (np.empty(shape), np.empty(shape))
        first, second = self._fab_buffers
        return first[:n], second[:n]

    def _publish(self, cols: Dict[str, np.memmap], lo: int, hi: int) -> None:
        """Drop fabricated rows from RSS and raise their flags; a durable
        store flushes the rows before and the flag after."""
        block = lo // self.block_size
        for name, mm in cols.items():
            if self.durable:
                flush_rows(mm, lo, hi)
            release_rows(mm, lo, hi)
            flags = self._flag_map(name)
            flags[block] = 1
            if self.durable:
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
        self._fab_buffers = None

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
    fabricates from the same spawn keys with the same draw order and
    folds through the same
    :class:`~repro.aging.simulator.CoefficientFold`, whose
    :meth:`~repro.aging.simulator.CoefficientFold.subtracter` is the
    aging subtraction of both sources, and the kernel is the same
    function.

    A streaming window keeps no frequency corner: the study memoises
    nothing over it and feeds its sinks straight from the kernel blocks.
    :meth:`close` deletes ``own_root`` when the source owns the store
    directory.
    """

    #: resident-set budget (bytes) above which the window streams: column
    #: pages are madvise(DONTNEED)-released after every block and the
    #: study memoises no corner.  Windows that fit the budget skip the
    #: release (the refaults would cost more than the pages) and run at
    #: in-RAM speed.
    RESIDENT_BUDGET_BYTES = 256 * 2**20

    def __init__(
        self,
        store: PopulationStore,
        *,
        row_start: int = 0,
        row_stop: Optional[int] = None,
        own_root: Optional[pathlib.Path] = None,
    ):
        row_stop = store.n_chips if row_stop is None else int(row_stop)
        if not 0 <= row_start < row_stop <= store.n_chips:
            raise ValueError(
                f"row window [{row_start}, {row_stop}) outside the store's "
                f"0..{store.n_chips}"
            )
        self.store = store
        self.fold = store.fold
        self._own_root = own_root
        self._rows = (int(row_start), row_stop)
        self._closed = False
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

    def release(self, lo: int, hi: int, columns: Sequence[str]) -> None:
        """When streaming, drop rows ``[lo, hi)`` of the named columns
        from the resident set."""
        if not self.streaming:
            return
        r0 = self._rows[0]
        self.store.release(columns, r0 + lo, r0 + hi)

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
    the source and removed on :meth:`StoreColumns.close`; that store is
    not durable, so it is never flushed.  With it they
    persist in ``store_dir/<design name>``, so the designs of one run
    (RO-PUF and ARO-PUF) never share a root; a store already there is
    adopted when its content key matches and refused otherwise, which
    makes repeated million-chip sweeps incremental.
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
        durable=own_root is None,
    )
    return StoreColumns(store, own_root=own_root)

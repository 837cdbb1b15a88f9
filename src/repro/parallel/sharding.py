"""Chip-axis sharding: the deterministic work decomposition of a study.

The chip axis of every population Monte-Carlo is embarrassingly parallel:
chip ``i``'s silicon is fabricated from its own spawned child stream and
its responses never read another chip's state.  This module turns a
``(design, mission, seed, n_chips)`` study into ``jobs`` self-contained
:class:`ShardSpec` work orders:

* :func:`shard_bounds` splits ``range(n_chips)`` into contiguous,
  balanced ``[start, stop)`` ranges — chip order is preserved, so the
  coordinator reassembles results with one concatenation and no
  permutation bookkeeping;
* :class:`ShardSpec` carries everything a worker process needs to
  fabricate and evaluate its chips *locally*: the (small, picklable)
  design and mission objects plus each chip's **spawn keys** — plain
  ints from :func:`repro._rng.spawn_keys` — rather than the stacked
  threshold tensors, keeping the pickled task payload in the kilobytes
  regardless of population size.

Because the coordinator derives the *full* population's key lists once
and slices them (``spawn_keys`` makes no prefix promise across different
``n``), every shard fabricates exactly the chips a serial
:func:`~repro.core.population.make_batch_study` run would have, for any
shard count — including counts that do not divide ``n_chips``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..aging.schedule import IdlePolicy, MissionProfile
from ..core.base import PufDesign


def shard_bounds(n_items: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(n_items)`` into contiguous, balanced ``(start, stop)``.

    The first ``n_items % shards`` ranges carry one extra item, so sizes
    differ by at most one; a shard count above ``n_items`` is clamped so
    no empty shard is ever created.  Concatenating per-range results in
    list order reproduces item order exactly.
    """
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, n_items)
    base, extra = divmod(n_items, shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for k in range(shards):
        stop = start + base + (1 if k < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


@dataclass(frozen=True)
class ShardSpec:
    """One worker's self-contained fabrication-and-evaluation order.

    Parameters
    ----------
    design, mission, idle_policy:
        The study bundle, exactly as :func:`make_batch_study` receives it
        (all small frozen dataclasses — cheap to pickle).
    chip_start:
        Global index of this shard's first chip; chip ``j`` of the shard
        is population chip ``chip_start + j``.
    fab_keys, aging_keys:
        This shard's slice of the population's fabrication / aging spawn
        keys (ints; see :func:`repro._rng.spawn_keys`).
    store_root:
        When set, the path of a shared
        :class:`~repro.store.store.PopulationStore`: the worker attaches
        to its mmap segments (by path + row offset) and evaluates
        out-of-core over rows ``[chip_start, chip_start + n_chips)``
        instead of fabricating an in-RAM shard.  The keys still ride
        along — they are a few bytes per chip and double as the worker's
        identity check against the store's persisted key lists.
    block_size:
        The study's source block in chips (see
        :func:`~repro.core.population.make_batch_study`); an in-RAM shard
        streams its rows in blocks of this size.  Store-attached shards
        follow the shared store's own block size.
    """

    design: PufDesign
    mission: MissionProfile
    idle_policy: Optional[IdlePolicy]
    chip_start: int
    fab_keys: Tuple[int, ...]
    aging_keys: Tuple[int, ...]
    store_root: Optional[str] = None
    block_size: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.fab_keys:
            raise ValueError("a shard must carry at least one chip")
        if len(self.fab_keys) != len(self.aging_keys):
            raise ValueError(
                f"{len(self.fab_keys)} fabrication keys vs "
                f"{len(self.aging_keys)} aging keys"
            )
        if self.chip_start < 0:
            raise ValueError("chip_start must be non-negative")

    @property
    def n_chips(self) -> int:
        return len(self.fab_keys)

    @property
    def chip_ids(self) -> range:
        """The global chip indices this shard fabricates."""
        return range(self.chip_start, self.chip_start + self.n_chips)

"""Out-of-core population storage (``--store mmap``).

The streaming counterpart of the in-RAM population: a
:class:`~repro.store.store.PopulationStore` holds the population's
process and aging columns as lazily fabricated, memory-mapped ``.npy``
segments, and :class:`~repro.store.store.StoreColumns` hands a row
window of it to :class:`~repro.core.population.BatchStudy`, which
evaluates it block by block with bounded RSS — bit-identical responses
at any block size and worker count, million-chip sweeps on laptop RAM.
Build one with ``make_batch_study(..., store="mmap")``.
"""

from .store import (
    AGING_COLUMNS,
    COLUMNS,
    FAB_COLUMNS,
    STORE_FORMAT,
    PopulationStore,
    StoreColumns,
    default_block_size,
    flush_rows,
    open_store_columns,
    release_rows,
    remove_store,
)

__all__ = [
    "AGING_COLUMNS",
    "COLUMNS",
    "FAB_COLUMNS",
    "STORE_FORMAT",
    "PopulationStore",
    "StoreColumns",
    "default_block_size",
    "flush_rows",
    "open_store_columns",
    "release_rows",
    "remove_store",
]

"""Sharded evaluation of population studies, plus result caching.

Public surface:

* :class:`ShardExecutor` — the process-pool executor a
  :class:`~repro.core.population.BatchStudy` built with
  ``make_batch_study(..., jobs=N)`` hands its evaluations to;
  bit-identical results for any worker count.
* :class:`ResultCache` / :func:`cache_key` — content-addressed on-disk
  cache of experiment payloads (``repro run --cache DIR``).
* :func:`shard_bounds` / :class:`ShardSpec` — the deterministic chip-axis
  decomposition, exposed for tests and tooling.
"""

from .cache import CACHE_FORMAT, ResultCache, cache_key
from .executor import ShardExecutor
from .sharding import ShardSpec, shard_bounds
from .worker import EvalRequest, ShardReport

__all__ = [
    "CACHE_FORMAT",
    "EvalRequest",
    "ResultCache",
    "ShardExecutor",
    "ShardReport",
    "ShardSpec",
    "cache_key",
    "shard_bounds",
]

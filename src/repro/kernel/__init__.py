"""Fused evaluation kernel: the single-pass hot path of the batched engine.

``repro.kernel`` owns the per-block arithmetic every population study
streams its chips through: :mod:`repro.kernel.fused` is the fabricate →
age → compare chain as one chip-axis-blocked pass — the frequency block
kernel, the per-block finalisation (finiteness check + reciprocal) and
the block *sinks* that derive response bits and histogram counts from
each frequency block while it is still cache-resident, instead of
re-reading a population-sized tensor per derived quantity.

The engine (:class:`repro.core.population.BatchStudy`) stays the public
surface; this package is where its arithmetic lives, shared by every
column source and shard worker so serial / parallel / out-of-core stay
bit-identical by construction.
"""

from .fused import (
    OVERDRIVE_ERROR,
    MarginHistogramSink,
    ResponseBlockSink,
    finalize_period_block,
    frequency_block_kernel,
)

__all__ = [
    "frequency_block_kernel",
    "finalize_period_block",
    "ResponseBlockSink",
    "MarginHistogramSink",
    "OVERDRIVE_ERROR",
]

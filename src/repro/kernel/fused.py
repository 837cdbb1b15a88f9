"""The fused single-pass evaluation kernel and its block sinks.

One population sweep grid point used to be three full-tensor passes —
assemble overdrives, turn them into frequencies, then re-read the
frequency tensor once per derived quantity (bits, margins, histogram
counts).  This module collapses that to a single chip-axis-blocked
stream: per block the kernel fabricates periods from thresholds
(:func:`frequency_block_kernel`), :func:`finalize_period_block` checks
finiteness and flips them to frequencies in place, and the caller's
*sinks* consume the fresh frequency rows — in bounded super-block
windows that amortise per-call dispatch while keeping the traffic far
below a full-tensor re-read — to emit response bits
(:class:`ResponseBlockSink`) or signed-margin histogram counts
(:class:`MarginHistogramSink`).

All sinks are plain callables ``sink(lo, hi, freq_rows)`` over
window-relative rows ``[lo, hi)``.
Every sink performs its block's work exactly as the public per-array
function does on the full tensor — the response sink runs the noiseless
comparison of :func:`repro.core.readout.compare_pairs` (same gather,
same ``>``), the histogram sink calls
:func:`repro.metrics.margins.relative_margins` /
:func:`~repro.metrics.margins.margin_histogram` directly — so bits and
counts are bit-identical to the unfused full-tensor evaluation, because
comparison and binning are elementwise along the chip axis and
histogram counts merge by addition.
"""

from __future__ import annotations

import numpy as np

#: the diagnosis for a non-positive gate overdrive (tests match on the text)
OVERDRIVE_ERROR = (
    "non-positive gate overdrive: the supply cannot turn on every "
    "device at this corner (vdd too low or thresholds too high)"
)


def frequency_block_kernel(
    od,
    scratch,
    vth_rows,
    *,
    vdd: float,
    neg_alpha: float,
    w_flat,
    period_out,
    tc_rows=None,
    tc_coeff: float = 0.0,
    subtract_aging=None,
) -> None:
    """One chip-axis block of the batched frequency kernel, into ``period_out``.

    The exact operation sequence — subtract, optional tc term, optional
    aging subtraction, ``exp(-alpha * log(od))`` in place, one BLAS
    matvec — that :class:`~repro.core.population.BatchStudy` runs over
    every column source, so in-RAM and out-of-core rows are
    bit-identical by construction.  ``subtract_aging(od, scratch)``
    performs ``od -= delta`` for this block; the column source owns the
    grouping choice.  Must run inside ``np.errstate(invalid="ignore",
    divide="ignore")``; ``period_out`` holds *periods* — the caller checks
    finiteness and takes the reciprocal (see
    :func:`finalize_period_block`).
    """
    np.subtract(vdd, vth_rows, out=od)
    if tc_rows is not None:
        # off nominal temperature the tc mismatch term is non-zero
        np.multiply(tc_rows, tc_coeff, out=scratch)
        od -= scratch
    if subtract_aging is not None:
        subtract_aging(od, scratch)
    # od ** -alpha as exp(-alpha * log(od)), in place — measurably
    # faster than np.power and within a couple of ULPs of it;
    # non-positive overdrives surface as NaN/inf periods for the
    # caller's finiteness check.
    np.log(od, out=od)
    od *= neg_alpha
    np.exp(od, out=od)
    # the (stage, polarity) reduction as one BLAS matvec on no-copy
    # views — what tensordot does internally, minus its per-call
    # reshaping overhead
    np.dot(od.reshape(-1, w_flat.shape[0]), w_flat, out=period_out.reshape(-1))


def finalize_period_block(period_rows) -> None:
    """Periods → frequencies in place for one block, or raise.

    The finiteness check runs per block on cache-resident rows instead
    of in a separate full-tensor pass; values are unchanged relative to
    checking and inverting the whole tensor afterwards (both operations
    are elementwise).
    """
    if not np.isfinite(period_rows).all():
        raise ValueError(OVERDRIVE_ERROR)
    np.reciprocal(period_rows, out=period_rows)


class ResponseBlockSink:
    """Fills a ``(n_chips, n_bits)`` uint8 response array block by block.

    Each block performs the noiseless comparison of
    :func:`~repro.core.readout.compare_pairs` — gather the two oscillator
    columns of every pair, ``bit = 1`` where the first counts higher — so
    the assembled bits equal ``compare_pairs(full_freqs, ...)`` exactly
    (the comparison is elementwise along the chip axis).  The sink keeps
    the hot loop allocation-free: pair indices are split and validated
    once at construction, the two gather buffers are reused across
    blocks, and the comparison writes straight into the caller's uint8
    array through a boolean view (``np.bool_`` is one byte holding 0/1).
    """

    def __init__(self, pairs: np.ndarray, tech, readout, out: np.ndarray):
        pairs = np.asarray(pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must have shape (n_bits, 2)")
        if np.any(pairs < 0):
            raise ValueError("pair indices out of range")
        self.pairs = pairs
        self.tech = tech
        self.readout = readout
        self.out = out
        self._idx_a = np.ascontiguousarray(pairs[:, 0])
        self._idx_b = np.ascontiguousarray(pairs[:, 1])
        self._bits = out.view(np.bool_)
        self._f_a: np.ndarray = None
        self._f_b: np.ndarray = None

    def __call__(self, lo: int, hi: int, freq_rows: np.ndarray) -> None:
        n = hi - lo
        if (
            self._f_a is None
            or self._f_a.shape[0] < n
            or self._f_a.dtype != freq_rows.dtype
        ):
            # engines stream uniform blocks with a short tail, so in
            # practice the buffers are allocated once by the first block
            shape = (n, self._idx_a.shape[0])
            self._f_a = np.empty(shape, dtype=freq_rows.dtype)
            self._f_b = np.empty(shape, dtype=freq_rows.dtype)
        f_a, f_b = self._f_a[:n], self._f_b[:n]
        np.take(freq_rows, self._idx_a, axis=1, out=f_a)
        np.take(freq_rows, self._idx_b, axis=1, out=f_b)
        np.greater(f_a, f_b, out=self._bits[lo:hi])


class MarginHistogramSink:
    """Accumulates signed-margin histogram counts block by block.

    Binning is per element and counts merge by addition over the shared
    explicit ``edges``, so :attr:`counts` equals the one-shot
    full-tensor histogram exactly — the same invariant the parallel
    engine's shard merge already relies on.
    """

    def __init__(self, pairs: np.ndarray, edges: np.ndarray):
        self.pairs = pairs
        self.edges = np.asarray(edges, dtype=float)
        self.counts = np.zeros(len(self.edges) - 1, dtype=np.int64)

    def __call__(self, lo: int, hi: int, freq_rows: np.ndarray) -> None:
        from ..metrics.margins import margin_histogram, relative_margins

        self.counts += margin_histogram(
            relative_margins(freq_rows, self.pairs), self.edges
        )

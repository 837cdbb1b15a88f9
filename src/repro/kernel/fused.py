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
below a full-tensor re-read — to emit response bits and per-chip
flip counts (:class:`ResponseBlockSink`) or signed-margin histogram
counts (:class:`MarginHistogramSink`).

All sinks are plain callables ``sink(lo, hi, freqs)`` over
window-relative rows ``[lo, hi)``; ``freqs`` stacks the rows of every
corner the stream evaluates, shape ``(K, hi - lo, n_ros)``.
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
    performs ``od -= delta`` for this block
    (:meth:`~repro.aging.simulator.CoefficientFold.subtracter`).  Must
    run inside ``np.errstate(invalid="ignore", divide="ignore")``;
    ``period_out`` holds *periods* — the caller checks finiteness and
    takes the reciprocal (see :func:`finalize_period_block`).
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
    """Response bits — and optionally per-chip flip counts — block by block.

    A sink call receives the frequency rows of ``K`` corners stacked as
    ``(K, rows, n_ros)``.  One gather and one comparison per call run the
    noiseless comparison of :func:`~repro.core.readout.compare_pairs` —
    gather the two oscillator columns of every pair, ``bit = 1`` where
    the first counts higher — for every corner at once (elementwise
    along the chip axis, so the bits equal ``compare_pairs`` on the full
    tensor exactly).  Corner 0's bits land in ``out`` (``(n_chips,
    n_bits)`` uint8); with ``counts`` (``(K - 1, n_chips)`` int64) every
    later corner is reduced against corner 0 to its number of flipped
    bits per chip, so a year sweep never holds more than one bit matrix.

    The hot loop is allocation-free: pair indices are split and
    validated once at construction, and the gather/compare buffers are
    reused across calls.  With one corner the comparison writes straight
    into ``out`` through a boolean view (``np.bool_`` is one byte
    holding 0/1).
    """

    def __init__(self, pairs: np.ndarray, out: np.ndarray, counts=None):
        pairs = np.asarray(pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must have shape (n_bits, 2)")
        if np.any(pairs < 0):
            raise ValueError("pair indices out of range")
        self.pairs = pairs
        self.out = out
        self.counts = counts
        self._idx_a = np.ascontiguousarray(pairs[:, 0])
        self._idx_b = np.ascontiguousarray(pairs[:, 1])
        self._bits = out.view(np.bool_)
        self._buf: tuple = ()

    def _buffers(self, shape: tuple, dtype) -> tuple:
        """Contiguous ``shape`` views of the reused gather/compare buffers."""
        size = int(np.prod(shape))
        if not self._buf or self._buf[0].size < size or self._buf[0].dtype != dtype:
            # engines stream uniform blocks with a short tail, so in
            # practice the buffers are allocated once by the first call
            self._buf = (
                np.empty(size, dtype=dtype),
                np.empty(size, dtype=dtype),
                np.empty(size, dtype=np.bool_),
            )
        return tuple(b[:size].reshape(shape) for b in self._buf)

    def __call__(self, lo: int, hi: int, freqs: np.ndarray) -> None:
        shape = freqs.shape[:2] + self._idx_a.shape
        f_a, f_b, cmp = self._buffers(shape, freqs.dtype)
        np.take(freqs, self._idx_a, axis=2, out=f_a)
        np.take(freqs, self._idx_b, axis=2, out=f_b)
        if self.counts is None:
            np.greater(f_a[0], f_b[0], out=self._bits[lo:hi])
            return
        np.greater(f_a, f_b, out=cmp)
        self._bits[lo:hi] = cmp[0]
        flips = cmp[1:]
        np.not_equal(flips, cmp[0], out=flips)
        self.counts[:, lo:hi] = np.count_nonzero(flips, axis=2)


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

    def __call__(self, lo: int, hi: int, freqs: np.ndarray) -> None:
        from ..metrics.margins import margin_histogram, relative_margins

        self.counts += margin_histogram(
            relative_margins(freqs, self.pairs), self.edges
        )

"""Spatial components of process variation.

Two spatially structured components matter for RO-PUF statistics:

* The **systematic layout component** — lithography- and layout-induced
  threshold offsets that depend on the *die coordinate only* and are
  therefore (to first order) identical on every manufactured chip.  Because
  it is the same on every chip, it biases each RO-pair comparison the same
  way everywhere, correlating responses across chips and pulling the
  inter-chip Hamming distance below the ideal 50 %.  With
  ``sigma_sys = q * sigma_rand`` the expected inter-chip HD is

      HD = 1/2 - (1/pi) * arcsin(q**2 / (1 + q**2))

  (two bits from two chips agree when the common systematic offset
  dominates both chips' independent random parts).  The paper's ~45 %
  conventional figure corresponds to q ~= 0.43, which is how
  ``VariationParameters.sigma_systematic`` was calibrated.

* A **smooth chip-specific correlated component** — wafer-level gradients
  and stress fields that differ chip to chip.  It is common-mode for
  physically adjacent ROs (neighbour pairing cancels most of it) but not
  for distant ones; it is included for fidelity of pairing-strategy
  comparisons.

The ARO-PUF's symmetric (common-centroid, interleaved) cell layout cancels
the systematic component differentially; we model that as a residual factor
applied to the systematic field (see :class:`LayoutStyle`).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Callable

import numpy as np

from .._rng import RngLike, as_generator


class LayoutStyle(enum.Enum):
    """How the oscillator cells are laid out on the die.

    ``CONVENTIONAL`` places each RO compactly at its grid slot, so it picks
    up the full systematic offset of its coordinate.  ``SYMMETRIC`` is the
    ARO discipline: the stages of neighbouring oscillators are interleaved
    about a common centroid, cancelling linear (and most of the smooth)
    systematic gradient between any two compared oscillators.
    """

    CONVENTIONAL = "conventional"
    SYMMETRIC = "symmetric"


#: Residual fraction of the systematic component that survives a
#: common-centroid symmetric layout (non-linear gradient remnants).
SYMMETRIC_RESIDUAL = 0.05


def systematic_field(positions: np.ndarray, sigma: float) -> np.ndarray:
    """Deterministic systematic threshold offset at each position (volts).

    The field is a fixed low-order surface — a tilted plane plus a gentle
    bowl plus a mid-frequency ripple — chosen to mimic lithographic and
    CMP-induced systematics.  It is *deterministic* (a property of the mask
    set, not of any individual chip) and normalised so its standard
    deviation over the supplied positions equals ``sigma``.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must have shape (n, 2)")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    x, y = positions[:, 0], positions[:, 1]
    span = max(float(np.ptp(x)), float(np.ptp(y)), 1.0)
    xn, yn = x / span, y / span
    raw = (
        0.9 * xn
        + 0.5 * yn
        + 0.6 * (xn - 0.5) ** 2
        + 0.3 * np.sin(2.0 * np.pi * 1.5 * xn)
        + 0.2 * np.cos(2.0 * np.pi * 1.2 * yn)
    )
    raw = raw - raw.mean()
    std = raw.std()
    if std == 0.0:  # single position: no gradient to speak of
        return np.zeros_like(raw)
    return sigma * raw / std


#: above this point count the exact Cholesky draw (O(n^2) memory) gives
#: way to the FFT grid synthesiser
_CHOLESKY_LIMIT = 1024

#: memoised Cholesky factors keyed by (positions, sigma, length).  The
#: factor is a pure function of the kernel inputs, so reusing it across
#: chips changes nothing about the draws: every chip still multiplies the
#: same matrix by its own standard-normal vector.  Block fabrication
#: asks for it once per block, and every block (and design) on the same
#: grid shares one factorisation, which costs far more than the matvecs.
_CHOL_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_CHOL_CACHE_SIZE = 8


def _cholesky_factor(
    positions: np.ndarray, sigma: float, correlation_length: float
) -> np.ndarray:
    key = (positions.tobytes(), float(sigma), float(correlation_length))
    chol = _CHOL_CACHE.get(key)
    if chol is not None:
        _CHOL_CACHE.move_to_end(key)
        return chol
    n = positions.shape[0]
    diff = positions[:, None, :] - positions[None, :, :]
    dist2 = np.sum(diff**2, axis=-1)
    cov = sigma**2 * np.exp(-0.5 * dist2 / correlation_length**2)
    # jitter for numerical positive-definiteness
    cov[np.diag_indices(n)] += 1e-12 * sigma**2 + 1e-18
    chol = np.linalg.cholesky(cov)
    chol.flags.writeable = False
    _CHOL_CACHE[key] = chol
    if len(_CHOL_CACHE) > _CHOL_CACHE_SIZE:
        _CHOL_CACHE.popitem(last=False)
    return chol


def correlated_field(
    positions: np.ndarray,
    sigma: float,
    correlation_length: float,
    rng: RngLike = None,
) -> np.ndarray:
    """Chip-specific smooth Gaussian random field sampled at ``positions``.

    Up to :data:`_CHOLESKY_LIMIT` points this is an exact
    squared-exponential-kernel Cholesky draw.  Beyond that (the key-
    generation design space sizes arrays to hundreds of thousands of ROs)
    an FFT-based grid synthesis with the same kernel takes over: white
    noise convolved with a Gaussian kernel of width ``L / sqrt(2)`` has
    exactly the squared-exponential covariance with length ``L``.  The
    grid path snaps each position to the nearest integer grid point, which
    is exact for the row-major RO grids this framework generates.
    """
    draw = correlated_field_sampler(positions, sigma, correlation_length)
    return draw(as_generator(rng))


def correlated_field_sampler(
    positions: np.ndarray, sigma: float, correlation_length: float
) -> Callable[[np.random.Generator], np.ndarray]:
    """``draw(gen)``: :func:`correlated_field` with its set-up done once.

    The Cholesky factor (or the FFT kernel spectrum) depends only on the
    grid, so a block of chips builds it once and each chip's ``draw``
    consumes its own generator exactly as :func:`correlated_field` would:
    one ``standard_normal`` of ``n`` (Cholesky) or of the padded grid
    (FFT), nothing when ``sigma`` is zero.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must have shape (n, 2)")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if correlation_length <= 0:
        raise ValueError("correlation_length must be positive")
    n = positions.shape[0]
    if sigma == 0.0 or n == 0:
        return lambda gen: np.zeros(n)
    if n <= _CHOLESKY_LIMIT:
        chol = _cholesky_factor(positions, sigma, correlation_length)
        return lambda gen: chol @ gen.standard_normal(n)
    return _fft_field_sampler(positions, sigma, correlation_length)


def _fft_field_sampler(
    positions: np.ndarray, sigma: float, correlation_length: float
) -> Callable[[np.random.Generator], np.ndarray]:
    """Grid-based spectral synthesis of the squared-exponential field."""
    xi = np.rint(positions[:, 0]).astype(np.int64)
    yi = np.rint(positions[:, 1]).astype(np.int64)
    xi -= xi.min()
    yi -= yi.min()
    cols = int(xi.max()) + 1
    rows = int(yi.max()) + 1
    # pad by several correlation lengths so the periodic FFT wrap-around
    # cannot correlate opposite die edges
    pad = int(np.ceil(4 * correlation_length))
    big_r, big_c = rows + pad, cols + pad

    s = correlation_length / np.sqrt(2.0)
    fy = np.fft.fftfreq(big_r)[:, None] * big_r
    fx = np.fft.fftfreq(big_c)[None, :] * big_c
    kernel = np.exp(-(fx**2 + fy**2) / (2.0 * s**2))
    norm = np.sqrt(np.sum(kernel**2))
    spectrum = np.fft.rfft2(kernel)

    def draw(gen: np.random.Generator) -> np.ndarray:
        white = gen.standard_normal((big_r, big_c))
        field = np.fft.irfft2(np.fft.rfft2(white) * spectrum, s=(big_r, big_c))
        field *= sigma / norm
        return field[yi, xi]

    return draw


def effective_systematic(
    positions: np.ndarray, sigma: float, layout: LayoutStyle
) -> np.ndarray:
    """Systematic offsets as *seen by each RO* under the given layout.

    Conventional layout exposes the raw field; the symmetric ARO layout
    leaves only :data:`SYMMETRIC_RESIDUAL` of it.
    """
    field = systematic_field(positions, sigma)
    if layout is LayoutStyle.SYMMETRIC:
        return SYMMETRIC_RESIDUAL * field
    return field

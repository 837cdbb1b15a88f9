"""Hamming-distance primitives shared by all PUF quality metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_bits(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype.kind in "bu":
        # unsigned and bool values are 0/1 exactly when none exceeds 1
        ok = arr.size == 0 or arr.max() <= 1
    else:
        ok = np.all((arr == 0) | (arr == 1))
    if not ok:
        raise ValueError("responses must be 0/1 bit arrays")
    return arr.astype(np.uint8)


def _count_differences(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance of two already-validated bit arrays."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def hamming_distance(a, b) -> int:
    """Number of positions where two equal-length bit vectors differ."""
    return _count_differences(_as_bits(a), _as_bits(b))


def fractional_hd(a, b) -> float:
    """Hamming distance normalised by the vector length."""
    a = _as_bits(a)
    if a.size == 0:
        raise ValueError("empty responses have no Hamming distance")
    return _count_differences(a, _as_bits(b)) / a.size


def _upper_triangle_hd(mat: np.ndarray):
    """Fractional HDs over the strict upper triangle of a response matrix.

    ``mat`` is a validated ``(n, width)`` bit matrix; returns
    ``(iu, ju, vals)`` where ``vals[k]`` is the fractional HD between rows
    ``iu[k]`` and ``ju[k]`` — the XOR-on-the-upper-triangle kernel shared
    by :func:`pairwise_fractional_hd` and :func:`hd_matrix`.
    """
    n, width = mat.shape
    if width == 0:
        raise ValueError("responses are empty")
    iu, ju = np.triu_indices(n, k=1)
    vals = (mat[iu] ^ mat[ju]).sum(axis=1) / width
    return iu, ju, vals


def pairwise_fractional_hd(responses: Sequence) -> np.ndarray:
    """Fractional HDs between all unordered pairs of responses.

    ``responses`` is a sequence of equal-length bit vectors (or a 2-D
    array, rows = responses).  Returns the flat vector of
    ``n*(n-1)/2`` pairwise fractional distances, the raw material of the
    inter-chip uniqueness statistic.
    """
    mat = np.stack([_as_bits(r) for r in responses])
    if mat.shape[0] < 2:
        raise ValueError("need at least two responses")
    _, _, vals = _upper_triangle_hd(mat)
    return vals


def hd_matrix(responses: Sequence) -> np.ndarray:
    """Full symmetric matrix of pairwise fractional HDs (zero diagonal)."""
    mat = np.stack([_as_bits(r) for r in responses])
    iu, ju, vals = _upper_triangle_hd(mat)
    out = np.zeros((mat.shape[0],) * 2)
    out[iu, ju] = vals
    out[ju, iu] = vals
    return out

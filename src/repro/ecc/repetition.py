"""Repetition code: the inner workhorse of high-error PUF key generators.

A raw bit-error probability around 30 % (the aged conventional RO-PUF) is
far beyond what any practical standalone BCH code handles, so key
generators concatenate a majority-voted repetition inner code that knocks
the error rate down to a level the outer BCH can finish off.  The price is
a factor-``r`` blow-up in raw PUF bits — the dominant term in the paper's
24x area comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RepetitionCode:
    """An ``r``-fold repetition code with majority decoding (``r`` odd)."""

    r: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.r % 2 == 0:
            raise ValueError("repetition factor must be a positive odd integer")

    @property
    def n(self) -> int:
        return self.r

    @property
    def k(self) -> int:
        return 1

    @property
    def t(self) -> int:
        """Errors corrected per group: ``(r - 1) // 2``."""
        return (self.r - 1) // 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rep({self.r})"

    def encode(self, message) -> np.ndarray:
        """Repeat every message bit ``r`` times."""
        msg = np.asarray(message)
        if not np.all((msg == 0) | (msg == 1)):
            raise ValueError("message must be a 0/1 bit vector")
        return np.repeat(msg.astype(np.uint8), self.r)

    def decode(self, received) -> np.ndarray:
        """Majority-vote every group of ``r`` bits."""
        rx = np.asarray(received)
        if rx.size % self.r != 0:
            raise ValueError(
                f"received length {rx.size} is not a multiple of r={self.r}"
            )
        if not np.all((rx == 0) | (rx == 1)):
            raise ValueError("received must be a 0/1 bit vector")
        groups = rx.reshape(-1, self.r)
        return (groups.sum(axis=1) > self.t).astype(np.uint8)

    def decoded_error_probability(self, p: float) -> float:
        """Residual bit-error probability after majority voting (a 1-entry
        view of :func:`majority_error_probabilities`)."""
        return float(majority_error_probabilities(p, [self.r])[0])


#: working precision of :func:`binom_sf`: x87 extended precision where the
#: platform has it (64-bit mantissa, exponent range to 1e±4932), so the
#: pmf products neither round at a double's last bit nor underflow.
#: Where ``longdouble`` is a double (MSVC, Apple silicon) the same
#: algorithm holds about 1e-13 relative and ``MAX_N`` is 1023.
_WORK = np.longdouble
#: largest ``n`` whose pmf fits the working range: ``C(n, j) <= 2**n``
#: and ``(1 - s)**n >= 2**-n`` for the smaller tail probability ``s``
MAX_N = np.finfo(_WORK).maxexp - 1


def binom_sf(k, n, p) -> np.ndarray:
    """``P[Binomial(n, p) > k]`` for ``0 <= k <= n``, over broadcast arrays.

    Outside the support (``k < 0``, ``k > n``, or ``p`` not in [0, 1])
    the result is NaN.  ``k`` and ``n`` are integers, ``n <= MAX_N``.

    Each distinct ``(n, p)`` is one row: the whole pmf of ``J ~
    Binomial(n, s)`` over the smaller tail probability ``s`` (``p``, or
    ``1 - p``, which is exact for ``p > 1/2``), tabulated in
    :data:`_WORK` precision as ``(1 - s)**n`` times the running product
    of ``(n - j) / (j + 1) * s / (1 - s)``.  The tail is a cumulative sum
    of non-negative terms, rounded to a double once: of ``J > k`` summed
    from ``j = n`` down for ``p <= 1/2``, of ``J < n - k`` summed from
    ``j = 0`` up above.  With x87 extended precision that is the
    correctly rounded tail but for rare ties of the last bit, within
    1e-16 relative of the exact ``Fraction`` tail, and exact ties stay
    exact: ``binom_sf(15, 31, 0.5) == 0.5``.

    The function is elementwise: a row and each of its sums depend only
    on ``(n, p)`` and the one ``k``, never on what else the call asks,
    so a tail is the same bits in a grid as in a one-value call.  Rows
    are tabulated in groups of similar ``n``; a row's zero padding past
    ``j = n`` leaves its sums exact.
    """
    k, n, p = np.broadcast_arrays(
        np.asarray(k, dtype=np.int64),
        np.asarray(n, dtype=np.int64),
        np.asarray(p, dtype=float),
    )
    out = np.full(k.shape, np.nan)
    ok = (k >= 0) & (k <= n) & (p >= 0.0) & (p <= 1.0)
    if not ok.any():
        return out[()]
    k, n, p = k[ok], n[ok], p[ok]
    if n.max() > MAX_N:
        raise ValueError(f"binom_sf supports n <= {MAX_N}, got {n.max()}")
    # one row per distinct (n, p)
    order = np.lexsort((p, n))
    first = np.ones(order.size, dtype=bool)
    first[1:] = (np.diff(n[order]) != 0) | (np.diff(p[order]) != 0)
    row_of = np.empty(order.size, dtype=np.int64)
    row_of[order] = np.cumsum(first) - 1
    row_n, row_p = n[order[first]], p[order[first]]
    flip = row_p > 0.5
    s = np.where(flip, 1.0 - row_p, row_p)
    group = 2 * np.frexp(row_n + 1)[1] + flip
    sf = np.empty(k.shape)
    for g in np.unique(group):
        members = np.flatnonzero(group == g)
        at = np.flatnonzero(np.isin(row_of, members))
        local = np.searchsorted(members, row_of[at])
        table = _pmf_table(row_n[members], s[members])
        if flip[members[0]]:
            # P[X > k] = P[J < n - k]: a prefix sum
            sums = np.cumsum(table, axis=1)
            col = n[at] - k[at] - 1
        else:
            # P[X > k] = P[J > k]: a suffix sum, summed from the top
            sums = np.cumsum(table[:, ::-1], axis=1)
            col = table.shape[1] - 2 - k[at]
        picked = sums[local, np.maximum(col, 0)].astype(float)
        sf[at] = np.where(col >= 0, picked, 0.0)
    out[ok] = sf
    return out[()]


def _pmf_table(ns: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``P[J = j]`` for ``J ~ Binomial(ns[i], s[i])``, ``j <= max(ns)``.

    ``(len(ns), max(ns) + 1)`` in :data:`_WORK` precision; the running
    product turns zero past ``j = ns[i]``, so a row does not depend on
    the rows tabulated beside it.
    """
    s = s.astype(_WORK)
    q = 1 - s
    j = np.arange(int(ns.max()), dtype=_WORK)
    # (n - j) / (j + 1) once per distinct n of the group
    distinct, which = np.unique(ns, return_inverse=True)
    binomial = np.maximum(distinct.astype(_WORK)[:, None] - j, 0)
    binomial /= j + 1
    ratio = binomial[which] * (s / q)[:, None]
    table = np.empty((len(ns), len(j) + 1), dtype=_WORK)
    table[:, 0] = 1
    np.cumprod(ratio, axis=1, out=table[:, 1:])
    table *= (q ** ns)[:, None]
    return table


def majority_error_probabilities(p: float, repetitions) -> np.ndarray:
    """Residual bit-error probability after majority voting, per factor.

    A decoded bit is wrong when more than ``t = (r - 1) // 2`` of its ``r``
    copies flipped: the binomial survival function at ``t``, evaluated for
    every factor in one :func:`binom_sf` call.  ``r = 1`` (no inner code)
    passes ``p`` through unchanged.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    r = np.asarray(repetitions, dtype=np.int64)
    return np.where(r == 1, p, binom_sf((r - 1) // 2, r, p))

"""GF(2^m) finite-field arithmetic, built from scratch.

The BCH codes used for PUF key generation live over binary extension
fields.  This module provides:

* :class:`GF2m` — a field with log/antilog tables for fast multiply,
  divide, inverse and power;
* cyclotomic cosets and minimal polynomials, the ingredients of the BCH
  generator polynomial;
* dense polynomial arithmetic over GF(2) (coefficients as 0/1 numpy
  arrays, lowest degree first), plus :func:`poly_remainder_rows`, the
  ``x^i mod g`` table that systematic cyclic encoding runs on.

Primitive polynomials follow the standard tables (Lin & Costello).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: default primitive polynomials for GF(2^m), m -> integer bitmask
#: (bit i = coefficient of x^i); from the standard tables.
PRIMITIVE_POLYS: Dict[int, int] = {
    2: 0b111,               # x^2 + x + 1
    3: 0b1011,              # x^3 + x + 1
    4: 0b10011,             # x^4 + x + 1
    5: 0b100101,            # x^5 + x^2 + 1
    6: 0b1000011,           # x^6 + x + 1
    7: 0b10001001,          # x^7 + x^3 + 1
    8: 0b100011101,         # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,        # x^9 + x^4 + 1
    10: 0b10000001001,      # x^10 + x^3 + 1
    11: 0b100000000101,     # x^11 + x^2 + 1
    12: 0b1000001010011,    # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,   # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,  # x^14 + x^10 + x^6 + x + 1
}


#: minimal polynomials by (m, primitive polynomial, coset leader)
_MINIMAL_POLYNOMIALS: Dict[Tuple[int, int, int], np.ndarray] = {}


class GF2m:
    """The finite field GF(2^m) with a fixed primitive element alpha.

    Elements are represented as integers in ``[0, 2^m)`` (polynomial basis
    bitmask).  ``exp[i] = alpha**i`` and ``log[x]`` invert each other for
    nonzero ``x``.
    """

    def __init__(self, m: int, primitive_poly: int = 0):
        if m < 2 or m > 14:
            raise ValueError("supported field sizes are GF(2^2) .. GF(2^14)")
        poly = primitive_poly or PRIMITIVE_POLYS[m]
        if poly >> m != 1 or poly < (1 << m):
            raise ValueError(
                f"primitive polynomial must have degree exactly {m}"
            )
        self.m = m
        self.order = (1 << m) - 1  # multiplicative group order
        self.size = 1 << m
        self.primitive_poly = poly

        exp = np.zeros(2 * self.order, dtype=np.int64)
        log = np.zeros(self.size, dtype=np.int64)
        x = 1
        for i in range(self.order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= poly
        if x != 1:
            raise ValueError(f"polynomial {poly:#b} is not primitive over GF(2)")
        exp[self.order :] = exp[: self.order]  # wraparound for index math
        self.exp = exp
        self.log = log

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, poly={self.primitive_poly:#x})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF2m)
            and other.m == self.m
            and other.primitive_poly == self.primitive_poly
        )

    def __hash__(self) -> int:
        return hash((self.m, self.primitive_poly))

    def _check(self, *elems: int) -> None:
        for e in elems:
            if not 0 <= e < self.size:
                raise ValueError(f"{e} is not an element of GF(2^{self.m})")

    def add(self, a: int, b: int) -> int:
        """Field addition (= subtraction = XOR)."""
        self._check(a, b)
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a: int) -> int:
        """Multiplicative inverse (raises on zero)."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in a field")
        return int(self.exp[self.order - self.log[a]])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^m)")
        if a == 0:
            return 0
        self._check(a, b)
        return int(self.exp[(self.log[a] - self.log[b]) % self.order])

    def pow(self, a: int, e: int) -> int:
        """``a`` raised to the integer power ``e`` (negative allowed)."""
        self._check(a)
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0 if e > 0 else 1
        return int(self.exp[(self.log[a] * e) % self.order])

    def alpha_pow(self, e: int) -> int:
        """``alpha**e`` for any integer exponent."""
        return int(self.exp[e % self.order])

    # ------------------------------------------------------------------
    # structures needed by BCH construction
    # ------------------------------------------------------------------

    def cyclotomic_coset(self, s: int) -> List[int]:
        """The 2-cyclotomic coset of ``s`` modulo ``2^m - 1``."""
        s %= self.order
        coset = []
        c = s
        while True:
            coset.append(c)
            c = (c * 2) % self.order
            if c == s:
                break
        return sorted(coset)

    def minimal_polynomial(self, s: int) -> np.ndarray:
        """Minimal polynomial of ``alpha**s`` over GF(2).

        Returned as a read-only 0/1 coefficient array, lowest degree
        first: ``prod_{j in coset(s)} (x - alpha**j)`` — the product has
        binary coefficients by construction.  Computed once per cyclotomic
        coset and field: the BCH palette asks for the same few polynomials
        thousands of times.
        """
        coset = self.cyclotomic_coset(s)
        key = (self.m, self.primitive_poly, coset[0])
        cached = _MINIMAL_POLYNOMIALS.get(key)
        if cached is not None:
            return cached
        # poly over GF(2^m), coefficients lowest-first; start with 1
        poly = [1]
        for j in coset:
            root = self.alpha_pow(j)
            # multiply poly by (x + root)
            new = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i + 1] ^= c  # times x
                new[i] ^= self.mul(c, root)
            poly = new
        coeffs = np.array(poly, dtype=np.uint8)
        if np.any(coeffs > 1):
            raise AssertionError("minimal polynomial must be binary")
        coeffs.flags.writeable = False
        _MINIMAL_POLYNOMIALS[key] = coeffs
        return coeffs


# ----------------------------------------------------------------------
# polynomial arithmetic over GF(2) — coefficient arrays, lowest first
# ----------------------------------------------------------------------


def poly_trim(p: np.ndarray) -> np.ndarray:
    """Strip trailing (high-order) zero coefficients; zero poly -> [0]."""
    p = np.asarray(p, dtype=np.uint8) & 1
    nz = np.nonzero(p)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=np.uint8)
    return p[: nz[-1] + 1].copy()


def poly_degree(p: np.ndarray) -> int:
    """Degree of the polynomial (zero polynomial has degree -1)."""
    p = poly_trim(p)
    if p.size == 1 and p[0] == 0:
        return -1
    return p.size - 1


def poly_mul_gf2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two GF(2)[x] polynomials."""
    a, b = poly_trim(a), poly_trim(b)
    out = np.convolve(a.astype(np.int64), b.astype(np.int64)) & 1
    return poly_trim(out.astype(np.uint8))


def poly_mod_gf2(a: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """``a mod m`` in GF(2)[x]."""
    a = poly_trim(a).astype(np.uint8).copy()
    mod = poly_trim(mod)
    dm = poly_degree(mod)
    if dm < 0:
        raise ZeroDivisionError("polynomial modulus is zero")
    if dm == 0:
        return np.zeros(1, dtype=np.uint8)
    while poly_degree(a) >= dm:
        da = poly_degree(a)
        shift = da - dm
        a[shift : shift + dm + 1] ^= mod
        a = poly_trim(a)
    out = np.zeros(dm, dtype=np.uint8)
    out[: a.size] = a if poly_degree(a) >= 0 else 0
    return out


def poly_remainder_rows(mod: np.ndarray, n: int) -> np.ndarray:
    """``x^i mod m`` for ``i = 0 .. n-1``, one 0/1 row per power.

    Shape ``(n, deg m)``; row ``i`` equals ``poly_mod_gf2(x^i, m)``.  The
    rows come from the LFSR recurrence ``r_{i+1} = x * r_i``, reduced by
    ``m`` whenever the shift carries into degree ``deg m``.  Division is
    linear over GF(2), so the remainder of any word is the XOR of the rows
    at its set bits — the table cyclic codes encode and check with.
    """
    mod = poly_trim(mod)
    dm = poly_degree(mod)
    if dm < 1:
        raise ValueError("modulus must have degree >= 1")
    rows = np.zeros((n, dm), dtype=np.uint8)
    rows[:1, 0] = 1  # x^0 = 1 (no row at all when n == 0)
    low = mod[:dm]
    for i in range(1, n):
        prev = rows[i - 1]
        rows[i, 1:] = prev[:-1]
        if prev[-1]:
            rows[i] ^= low
    return rows


def poly_mod_rows(
    rows: np.ndarray, bits: np.ndarray, offset: int = 0
) -> np.ndarray:
    """``(bits * x^offset) mod m`` given ``rows = poly_remainder_rows(m, n)``:
    the XOR of the rows at the set positions of ``bits``, shifted up by
    ``offset``."""
    picked = rows[offset + np.flatnonzero(bits)]
    return np.bitwise_xor.reduce(picked, axis=0)


def poly_lcm_gf2(polys: Sequence[np.ndarray]) -> np.ndarray:
    """Least common multiple of binary polynomials.

    The BCH construction only ever calls this with minimal polynomials
    (irreducible), so the LCM is the product of the *distinct* ones.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    seen = set()
    result = np.array([1], dtype=np.uint8)
    for p in polys:
        key = tuple(poly_trim(p).tolist())
        if key in seen:
            continue
        seen.add(key)
        result = poly_mul_gf2(result, p)
    return result

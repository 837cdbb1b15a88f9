"""Binary BCH codes: construction, systematic encoding, and decoding.

Everything is built from first principles on :mod:`repro.ecc.galois`:

* **construction** — the generator polynomial of a t-error-correcting BCH
  code of length ``2^m - 1`` is the LCM of the minimal polynomials of
  ``alpha, alpha^2, ..., alpha^{2t}``;
* **encoding** — systematic cyclic encoding (message in the high-order
  positions, parity = remainder of ``msg * x^{n-k}`` modulo the
  generator).  Division by the generator is linear, so each code keeps a
  remainder table ``x^i mod g`` (:func:`~repro.ecc.galois.poly_remainder_rows`,
  shape ``n x (n-k)``): parity is the XOR of the rows at the set message
  positions, and a word is a codeword when the XOR of its rows is zero;
* **decoding** — syndromes ``S_j = r(alpha^j)`` from a second table,
  ``alpha^{(i*j) mod (2^m-1)}`` of shape ``2t x n_full`` (one gather of
  the set positions, one XOR-reduce per syndrome), Berlekamp–Massey to
  find the error locator polynomial, and a Chien search for its roots.
  Binary BCH needs no error-magnitude (Forney) step: located bits are
  simply flipped.

Both tables, and the generator itself, are built on first use, once per
code object: ``k`` comes from the cyclotomic cosets, so a design search
that prices codes by ``(n, k, t)`` builds no generator.

Shortened codes (``BchCode.shortened``) are supported because key
generators rarely need the full natural length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Tuple

import numpy as np

from .. import telemetry
from .galois import (
    GF2m,
    poly_lcm_gf2,
    poly_mod_rows,
    poly_remainder_rows,
)


class BchDecodingError(ValueError):
    """Raised when the received word is beyond the code's correction power
    (more roots missing than the locator degree, or locations outside the
    shortened length)."""


def _as_bits(x, length: int, what: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.shape != (length,):
        raise ValueError(f"{what} must have shape ({length},), got {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{what} must be a 0/1 bit vector")
    return arr.astype(np.uint8)


@lru_cache(maxsize=None)
def _field(m: int) -> GF2m:
    """The one GF(2^m) of the BCH codes of length ``2^m - 1``: a palette
    builds dozens of codes per ``m``, and the antilog table is a Python
    loop over the field."""
    field = GF2m(m)
    field.exp.flags.writeable = False
    field.log.flags.writeable = False
    return field


@dataclass(frozen=True)
class BchCode:
    """A (possibly shortened) binary BCH code.

    Use :meth:`design` to build one; the constructor is not meant to be
    called with hand-rolled parameters.
    """

    field: GF2m
    n: int
    k: int
    t: int
    #: natural (unshortened) code length ``2^m - 1``
    n_full: int

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def design(cls, m: int, t: int) -> "BchCode":
        """The t-error-correcting BCH code of length ``2^m - 1``.

        The generator is the LCM of the minimal polynomials of ``alpha ..
        alpha^{2t}``: the product of one minimal polynomial per distinct
        cyclotomic coset, of degree the coset's size.  So ``n - k`` is the
        size of the union of the cosets of ``1 .. 2t``.
        """
        if t < 1:
            raise ValueError("t must be at least 1")
        field = _field(m)
        n = field.order
        if 2 * t >= n:
            raise ValueError(f"t={t} too large for length {n}")
        roots = set()
        for j in range(1, 2 * t + 1):
            if j not in roots:
                roots.update(field.cyclotomic_coset(j))
        k = n - len(roots)
        if k <= 0:
            raise ValueError(f"BCH(m={m}, t={t}) has no message bits")
        return cls(field=field, n=n, k=k, t=t, n_full=n)

    def shortened(self, n_short: int) -> "BchCode":
        """Shorten to length ``n_short`` (drops high-order message bits)."""
        drop = self.n - n_short
        if drop < 0:
            raise ValueError("a shortened code cannot be longer")
        if drop >= self.k:
            raise ValueError(
                f"cannot shorten by {drop}: only {self.k} message bits"
            )
        return BchCode(
            field=self.field,
            n=n_short,
            k=self.k - drop,
            t=self.t,
            n_full=self.n_full,
        )

    @cached_property
    def generator(self) -> np.ndarray:
        """The generator polynomial, 0/1 coefficients lowest degree first
        (built on first use; a shortened code has its parent's)."""
        field = self.field
        return poly_lcm_gf2(
            [field.minimal_polynomial(j) for j in range(1, 2 * self.t + 1)]
        )

    @property
    def n_parity(self) -> int:
        """Number of parity bits (degree of the generator polynomial)."""
        return self.n - self.k

    @property
    def rate(self) -> float:
        """Code rate ``k / n``."""
        return self.k / self.n

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"BCH({self.n},{self.k},t={self.t})"

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def encode(self, message) -> np.ndarray:
        """Systematic encoding: ``[parity | message]`` (lowest index first).

        Positions ``0 .. n-k-1`` carry parity, ``n-k .. n-1`` the message.
        """
        msg = _as_bits(message, self.k, "message")
        codeword = np.empty(self.n, dtype=np.uint8)
        codeword[: self.n_parity] = poly_mod_rows(
            self._remainder_rows, msg, self.n_parity
        )
        codeword[self.n_parity :] = msg
        return codeword

    def extract_message(self, codeword) -> np.ndarray:
        """Message bits of a (corrected) systematic codeword."""
        cw = _as_bits(codeword, self.n, "codeword")
        return cw[self.n_parity :].copy()

    def is_codeword(self, word) -> bool:
        """True when ``word`` is divisible by the generator polynomial."""
        w = _as_bits(word, self.n, "word")
        return not poly_mod_rows(self._remainder_rows, w).any()

    @cached_property
    def _remainder_rows(self) -> np.ndarray:
        """``x^i mod g`` for every position ``i < n``, shape ``(n, n-k)``."""
        return poly_remainder_rows(self.generator, self.n)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    @cached_property
    def _syndrome_powers(self) -> np.ndarray:
        """``alpha^{(i*j) mod (2^m-1)}`` at row ``j-1``, column ``i``:
        shape ``(2t, n_full)``."""
        field = self.field
        j = np.arange(1, 2 * self.t + 1)[:, np.newaxis]
        i = np.arange(self.n_full)
        return field.exp[(i * j) % field.order]

    def _syndromes(self, received: np.ndarray) -> List[int]:
        """``S_j = r(alpha^j)`` for ``j = 1 .. 2t``."""
        powers = self._syndrome_powers[:, np.flatnonzero(received)]
        return np.bitwise_xor.reduce(powers, axis=1).tolist()

    def _berlekamp_massey(self, syndromes: List[int]) -> List[int]:
        """Error-locator polynomial (coefficients lowest-first)."""
        field = self.field
        sigma = [1]
        prev = [1]
        l = 0
        shift = 1
        b = 1
        for step, s_n in enumerate(syndromes):
            d = s_n
            for i in range(1, l + 1):
                if i < len(sigma) and step - i >= 0:
                    d ^= field.mul(sigma[i], syndromes[step - i])
            if d == 0:
                shift += 1
                continue
            coef = field.div(d, b)
            update = sigma.copy()
            # sigma -= coef * x^shift * prev
            needed = shift + len(prev)
            if len(update) < needed:
                update.extend([0] * (needed - len(update)))
            for i, c in enumerate(prev):
                update[shift + i] ^= field.mul(coef, c)
            if 2 * l <= step:
                prev = sigma
                b = d
                l = step + 1 - l
                shift = 1
            else:
                shift += 1
            sigma = update
        # trim trailing zeros
        while len(sigma) > 1 and sigma[-1] == 0:
            sigma.pop()
        return sigma

    def _chien_search(self, sigma: List[int]) -> np.ndarray:
        """Error positions: ``i`` such that ``sigma(alpha^{-i}) = 0``."""
        field = self.field
        order = field.order
        positions = np.arange(self.n_full)
        acc = np.zeros(self.n_full, dtype=np.int64)
        for j, coef in enumerate(sigma):
            if coef == 0:
                continue
            exps = (int(field.log[coef]) + (order - positions * j) % order) % order
            acc ^= field.exp[exps]
        return np.nonzero(acc == 0)[0]

    def decode(self, received) -> Tuple[np.ndarray, int]:
        """Correct up to ``t`` errors.

        Returns ``(corrected codeword, number of corrected bits)``; raises
        :class:`BchDecodingError` when the word is uncorrectable *and* the
        decoder can tell (locator degree does not match its root count, or
        an error lands in the shortened prefix).  Words with more than
        ``t`` errors may also silently decode to a wrong codeword — an
        inherent property of bounded-distance decoding that the key-failure
        model accounts for.
        """
        telemetry.count("ecc.bch_decodes")
        rec = _as_bits(received, self.n, "received")
        # shortened positions beyond n are known zeros: they add nothing
        syndromes = self._syndromes(rec)
        if not any(syndromes):
            telemetry.count("ecc.bch_clean_words")
            return rec.copy(), 0
        sigma = self._berlekamp_massey(syndromes)
        n_errors = len(sigma) - 1
        if n_errors > self.t:
            telemetry.count("ecc.bch_decode_failures")
            raise BchDecodingError(
                f"locator degree {n_errors} exceeds correction power t={self.t}"
            )
        roots = self._chien_search(sigma)
        if roots.size != n_errors:
            telemetry.count("ecc.bch_decode_failures")
            raise BchDecodingError(
                f"found {roots.size} error locations for a degree-{n_errors} "
                "locator; received word is uncorrectable"
            )
        if np.any(roots >= self.n):
            telemetry.count("ecc.bch_decode_failures")
            raise BchDecodingError(
                "error located in the shortened (always-zero) prefix"
            )
        corrected = rec.copy()
        corrected[roots] ^= 1
        if poly_mod_rows(self._remainder_rows, corrected).any():
            telemetry.count("ecc.bch_decode_failures")
            raise BchDecodingError("correction did not land on a codeword")
        telemetry.count("ecc.bch_corrected_bits", n_errors)
        return corrected, int(n_errors)


def standard_codes(max_m: int = 10, max_t: int = 32) -> List[BchCode]:
    """A palette of practical BCH codes for the design-space search."""
    codes = []
    for m in range(5, max_m + 1):
        for t in range(1, max_t + 1):
            try:
                code = BchCode.design(m, t)
            except ValueError:
                break
            if code.k < 8:
                break
            codes.append(code)
    return codes

"""The binary Golay code (23, 12, 7) — the classic PUF key-gen workhorse.

Golay's perfect three-error-correcting code appears throughout the PUF
key-generation literature (Bosch et al.'s reference constructions use it
as the outer code), so the design-space search deserves it in the palette
next to the BCH family.

Encoding and syndromes run on one remainder table, ``x^i mod g`` for the
23 positions (:func:`~repro.ecc.galois.poly_remainder_rows`): the parity
of a message, and the 11-bit syndrome of a word, are the XOR of the rows
at its set bits.

Being *perfect*, the 2^11 syndromes are in exact one-to-one
correspondence with the error patterns of weight <= 3
(``1 + 23 + C(23,2) + C(23,3) = 2048``), so decoding is a syndrome table
lookup — built once per process by XOR-ing the remainder rows of each of
those patterns.  The flip side of perfection: there are no detectable
failures.  Any received word decodes to *some* codeword; four or more
errors silently miscorrect.  The key-failure model (binomial tail beyond
t) already accounts for that.

The interface mirrors :class:`repro.ecc.bch.BchCode` (``n``, ``k``,
``t``, ``encode``, ``decode``, ``extract_message``, ``is_codeword``,
``shortened``) so :class:`repro.ecc.concatenated.ConcatenatedCode`
accepts either family as the outer code.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .bch import BchDecodingError
from .galois import poly_mod_rows, poly_remainder_rows

#: generator polynomial x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1,
#: lowest-degree-first coefficient array
GOLAY_GENERATOR = np.array(
    [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8
)

N = 23
K = 12
T = 3
N_PARITY = 11


#: packs an 11-bit remainder into its integer syndrome key
_KEY_WEIGHTS = 1 << np.arange(N_PARITY)


@functools.lru_cache(maxsize=None)
def _remainder_rows() -> np.ndarray:
    """``x^i mod g`` for ``i < 23``, shape ``(23, 11)``; built on first use."""
    return poly_remainder_rows(GOLAY_GENERATOR, N)


def _syndrome_key(word: np.ndarray) -> int:
    return int(poly_mod_rows(_remainder_rows(), word) @ _KEY_WEIGHTS)


@functools.lru_cache(maxsize=None)
def _build_syndrome_table() -> Dict[int, Tuple[int, ...]]:
    """Map every syndrome to its unique weight-<=3 error pattern.

    Built once per process (cached): the table is a property of the code,
    not of any instance.  A pattern's syndrome is the XOR of the remainder
    rows at its positions.
    """
    row_keys = (_remainder_rows() @ _KEY_WEIGHTS).tolist()
    table: Dict[int, Tuple[int, ...]] = {}
    for weight in range(T + 1):
        for positions in itertools.combinations(range(N), weight):
            key = 0
            for p in positions:
                key ^= row_keys[p]
            if key in table:  # pragma: no cover - perfection
                raise AssertionError("syndrome collision: code is not perfect")
            table[key] = positions
    if len(table) != 2**N_PARITY:  # pragma: no cover
        raise AssertionError("syndrome table does not fill the space")
    return table


@dataclass(frozen=True)
class GolayCode:
    """The (23, 12) binary Golay code with table-lookup decoding.

    ``n_short`` < 23 gives the shortened variant (fewer message bits, same
    parity and correction power).
    """

    n: int = N
    _table: Dict[int, Tuple[int, ...]] = field(
        default_factory=_build_syndrome_table, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not N_PARITY < self.n <= N:
            raise ValueError(
                f"Golay length must be in ({N_PARITY}, {N}], got {self.n}"
            )

    # -- BchCode-compatible geometry --------------------------------------

    @property
    def k(self) -> int:
        return self.n - N_PARITY

    @property
    def t(self) -> int:
        return T

    @property
    def n_parity(self) -> int:
        return N_PARITY

    @property
    def rate(self) -> float:
        return self.k / self.n

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.n == N:
            return "Golay(23,12,t=3)"
        return f"Golay({self.n},{self.k},t=3)"

    def shortened(self, n_short: int) -> "GolayCode":
        """Shortened Golay code (drops high-order message bits)."""
        if n_short > self.n:
            raise ValueError("a shortened code cannot be longer")
        return GolayCode(n=n_short, _table=self._table)

    # -- codec -------------------------------------------------------------

    def encode(self, message) -> np.ndarray:
        msg = np.asarray(message)
        if msg.shape != (self.k,):
            raise ValueError(f"message must have shape ({self.k},)")
        if not np.all((msg == 0) | (msg == 1)):
            raise ValueError("message must be a 0/1 bit vector")
        codeword = np.empty(self.n, dtype=np.uint8)
        codeword[:N_PARITY] = poly_mod_rows(_remainder_rows(), msg, N_PARITY)
        codeword[N_PARITY:] = msg
        return codeword

    def extract_message(self, codeword) -> np.ndarray:
        cw = np.asarray(codeword)
        if cw.shape != (self.n,):
            raise ValueError(f"codeword must have shape ({self.n},)")
        return cw[N_PARITY:].astype(np.uint8).copy()

    def is_codeword(self, word) -> bool:
        w = np.asarray(word)
        if w.shape != (self.n,):
            raise ValueError(f"word must have shape ({self.n},)")
        if not np.all((w == 0) | (w == 1)):
            raise ValueError("word must be a 0/1 bit vector")
        return _syndrome_key(w) == 0

    def decode(self, received) -> Tuple[np.ndarray, int]:
        """Correct up to three errors via the perfect syndrome table.

        Shortened positions are known zeros; an "error" located there
        means the true pattern had weight > t, which the perfect code
        cannot flag otherwise — it is reported as a decoding failure.
        """
        rec = np.asarray(received)
        if rec.shape != (self.n,):
            raise ValueError(f"received must have shape ({self.n},)")
        if not np.all((rec == 0) | (rec == 1)):
            raise ValueError("received must be a 0/1 bit vector")
        # shortened positions beyond n are known zeros: they add nothing
        positions = self._table[_syndrome_key(rec)]
        if any(p >= self.n for p in positions):
            raise BchDecodingError(
                "error located in the shortened (always-zero) prefix"
            )
        corrected = rec.astype(np.uint8).copy()
        for p in positions:
            corrected[p] ^= 1
        return corrected, len(positions)

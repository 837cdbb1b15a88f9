"""Property-based oracle: the table-driven BCH and Golay codecs against
long division and the bit-serial syndrome definition.

The codecs encode, check and compute syndromes from per-code tables
(``x^i mod g`` remainder rows, ``alpha^{i*j}`` syndrome powers).  Every
table-driven result here is compared with its textbook definition, kept
in this file as the reference:

* remainders by ``poly_mod_gf2`` long division;
* syndromes ``S_j = sum over set bits i of alpha^{i*j}``, one
  ``alpha_pow`` call per set bit per syndrome;
* BCH decoding as syndromes -> Berlekamp–Massey -> Chien search -> a
  long-division codeword check;
* the Golay syndrome map by one long division per weight-<=3 pattern.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import (
    BchCode,
    BchDecodingError,
    GOLAY_GENERATOR,
    GolayCode,
    poly_degree,
    poly_mod_gf2,
    poly_remainder_rows,
)
from repro.ecc import golay

seeds = st.integers(0, 2**32 - 1)


@functools.lru_cache(maxsize=None)
def _design(m, t):
    return BchCode.design(m, t)


@st.composite
def bch_codes(draw):
    """BCH codes with m in 5..8 and t in 1..6, full or shortened."""
    code = _design(draw(st.integers(5, 8)), draw(st.integers(1, 6)))
    if code.k > 1 and draw(st.booleans()):
        return code.shortened(code.n - draw(st.integers(1, code.k - 1)))
    return code


golay_codes = st.integers(12, 23).map(lambda n: GolayCode(n=n))


# ---- the reference: long division and the bit-serial syndrome loop -------


def _x_pow(i):
    x = np.zeros(i + 1, dtype=np.uint8)
    x[i] = 1
    return x


def _reference_encode(code, generator, msg):
    shifted = np.zeros(code.n, dtype=np.uint8)
    shifted[code.n_parity :] = msg
    parity = poly_mod_gf2(shifted, generator)
    return np.concatenate([parity[: code.n_parity], msg]).astype(np.uint8)


def _reference_syndromes(code, word):
    field = code.field
    syndromes = []
    for j in range(1, 2 * code.t + 1):
        s = 0
        for i in np.nonzero(word)[0]:
            s ^= field.alpha_pow(int(i) * j)
        syndromes.append(s)
    return syndromes


def _reference_bch_decode(code, received):
    """Syndromes -> BM -> Chien, with bit-serial syndromes and a
    long-division codeword check."""
    syndromes = _reference_syndromes(code, received)
    if not any(syndromes):
        return received.copy(), 0
    sigma = code._berlekamp_massey(syndromes)
    n_errors = len(sigma) - 1
    if n_errors > code.t:
        raise BchDecodingError(
            f"locator degree {n_errors} exceeds correction power t={code.t}"
        )
    roots = code._chien_search(sigma)
    if roots.size != n_errors:
        raise BchDecodingError(
            f"found {roots.size} error locations for a degree-{n_errors} "
            "locator; received word is uncorrectable"
        )
    if np.any(roots >= code.n):
        raise BchDecodingError(
            "error located in the shortened (always-zero) prefix"
        )
    corrected = received.copy()
    corrected[roots] ^= 1
    if poly_mod_gf2(corrected, code.generator).any():
        raise BchDecodingError("correction did not land on a codeword")
    return corrected, int(n_errors)


def _golay_key(word):
    rem = poly_mod_gf2(word, GOLAY_GENERATOR)
    return int(sum(int(b) << i for i, b in enumerate(rem)))


@functools.lru_cache(maxsize=None)
def _reference_golay_table():
    table = {}
    for weight in range(4):
        for positions in itertools.combinations(range(23), weight):
            err = np.zeros(23, dtype=np.uint8)
            err[list(positions)] = 1
            table[_golay_key(err)] = positions
    return table


def _reference_golay_decode(code, received):
    positions = _reference_golay_table()[_golay_key(received)]
    if any(p >= code.n for p in positions):
        raise BchDecodingError(
            "error located in the shortened (always-zero) prefix"
        )
    corrected = received.copy()
    corrected[list(positions)] ^= 1
    return corrected, len(positions)


def _outcome(decode, code, word):
    try:
        corrected, count = decode(code, word)
    except BchDecodingError as exc:
        return ("error", str(exc))
    return ("ok", corrected.tolist(), count)


def _noisy_codeword(code, encode, seed, n_errors):
    rng = np.random.default_rng(seed)
    cw = encode(rng.integers(0, 2, code.k, dtype=np.uint8))
    word = cw.copy()
    word[rng.choice(code.n, size=min(n_errors, code.n), replace=False)] ^= 1
    return word


# ---- the helper itself ----------------------------------------------------


class TestRemainderRows:
    @given(
        mod=st.lists(st.integers(0, 1), min_size=1, max_size=16).map(
            lambda bits: np.array(bits + [1], dtype=np.uint8)
        ),
        n=st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_long_division(self, mod, n):
        rows = poly_remainder_rows(mod, n)
        assert rows.shape == (n, poly_degree(mod))
        for i in range(n):
            assert np.array_equal(rows[i], poly_mod_gf2(_x_pow(i), mod))

    def test_constant_modulus_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            poly_remainder_rows(np.array([1], dtype=np.uint8), 4)


# ---- BCH ------------------------------------------------------------------


class TestBchTables:
    @given(code=bch_codes())
    @settings(max_examples=30, deadline=None)
    def test_remainder_rows(self, code):
        rows = code._remainder_rows
        assert rows.shape == (code.n, code.n_parity)
        for i in range(code.n):
            assert np.array_equal(rows[i], poly_mod_gf2(_x_pow(i), code.generator))

    @given(code=bch_codes(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_encode_equals_long_division(self, code, seed):
        msg = np.random.default_rng(seed).integers(0, 2, code.k, dtype=np.uint8)
        expected = _reference_encode(code, code.generator, msg)
        assert np.array_equal(code.encode(msg), expected)

    @given(code=bch_codes(), seed=seeds, n_errors=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_is_codeword_equals_zero_remainder(self, code, seed, n_errors):
        word = _noisy_codeword(code, code.encode, seed, n_errors)
        expected = not poly_mod_gf2(word, code.generator).any()
        assert code.is_codeword(word) == expected
        # the designed distance 2t + 1 only guarantees that up to 2t
        # errors leave the code: a t = 1 code (distance 3) can turn three
        # errors into another codeword
        if n_errors <= 2 * code.t:
            assert expected == (n_errors == 0)

    @given(code=bch_codes(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_syndromes_equal_bit_serial_loop(self, code, seed):
        word = np.random.default_rng(seed).integers(0, 2, code.n, dtype=np.uint8)
        assert code._syndromes(word) == _reference_syndromes(code, word)

    @given(code=bch_codes(), seed=seeds, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_decode_matches_reference(self, code, seed, data):
        n_errors = data.draw(st.integers(0, 2 * code.t + 2), label="n_errors")
        word = _noisy_codeword(code, code.encode, seed, n_errors)
        assert _outcome(BchCode.decode, code, word) == _outcome(
            _reference_bch_decode, code, word
        )


# ---- Golay ----------------------------------------------------------------


class TestGolayTables:
    def test_remainder_rows(self):
        rows = golay._remainder_rows()
        assert rows.shape == (23, 11)
        for i in range(23):
            assert np.array_equal(rows[i], poly_mod_gf2(_x_pow(i), GOLAY_GENERATOR))

    def test_syndrome_map_equals_per_pattern_division(self):
        assert golay._build_syndrome_table() == _reference_golay_table()

    @given(code=golay_codes, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_encode_equals_long_division(self, code, seed):
        msg = np.random.default_rng(seed).integers(0, 2, code.k, dtype=np.uint8)
        expected = _reference_encode(code, GOLAY_GENERATOR, msg)
        assert np.array_equal(code.encode(msg), expected)

    @given(code=golay_codes, seed=seeds, n_errors=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_is_codeword_equals_zero_remainder(self, code, seed, n_errors):
        word = _noisy_codeword(code, code.encode, seed, n_errors)
        expected = not poly_mod_gf2(word, GOLAY_GENERATOR).any()
        assert code.is_codeword(word) == expected
        assert expected == (n_errors == 0)

    @given(code=golay_codes, seed=seeds, n_errors=st.integers(0, 8))
    @settings(max_examples=120, deadline=None)
    def test_decode_matches_reference(self, code, seed, n_errors):
        word = _noisy_codeword(code, code.encode, seed, n_errors)
        assert _outcome(GolayCode.decode, code, word) == _outcome(
            _reference_golay_decode, code, word
        )

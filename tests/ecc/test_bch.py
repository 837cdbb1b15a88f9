"""BCH codes: construction, encoding, decoding, shortening."""

import numpy as np
import pytest

from repro.ecc import BchCode, BchDecodingError, standard_codes
from repro.ecc.galois import poly_degree


@pytest.fixture(scope="module")
def bch_31_3():
    return BchCode.design(5, 3)


class TestConstruction:
    @pytest.mark.parametrize(
        "m,t,n,k",
        [(4, 1, 15, 11), (4, 2, 15, 7), (5, 3, 31, 16), (7, 9, 127, 71)],
    )
    def test_standard_parameters(self, m, t, n, k):
        """Dimensions must match the published BCH tables."""
        code = BchCode.design(m, t)
        assert (code.n, code.k) == (n, k)

    def test_generator_divides_x_n_minus_1(self, bch_31_3):
        from repro.ecc import poly_mod_gf2

        x_n_1 = np.zeros(32, dtype=np.uint8)
        x_n_1[0] = 1
        x_n_1[31] = 1
        assert not poly_mod_gf2(x_n_1, bch_31_3.generator).any()

    def test_excessive_t_rejected(self):
        with pytest.raises(ValueError):
            BchCode.design(4, 8)

    def test_nonpositive_t_rejected(self):
        with pytest.raises(ValueError):
            BchCode.design(5, 0)

    def test_rate_and_parity(self, bch_31_3):
        assert bch_31_3.n_parity == 15
        assert bch_31_3.rate == pytest.approx(16 / 31)


class TestEncoding:
    def test_systematic_layout(self, bch_31_3):
        msg = np.ones(16, dtype=np.uint8)
        cw = bch_31_3.encode(msg)
        assert cw.shape == (31,)
        assert np.array_equal(cw[15:], msg)
        assert np.array_equal(bch_31_3.extract_message(cw), msg)

    def test_codeword_is_codeword(self, bch_31_3):
        rng = np.random.default_rng(0)
        for _ in range(10):
            msg = rng.integers(0, 2, 16).astype(np.uint8)
            assert bch_31_3.is_codeword(bch_31_3.encode(msg))

    def test_linearity(self, bch_31_3):
        rng = np.random.default_rng(1)
        m1 = rng.integers(0, 2, 16).astype(np.uint8)
        m2 = rng.integers(0, 2, 16).astype(np.uint8)
        assert np.array_equal(
            bch_31_3.encode(m1) ^ bch_31_3.encode(m2),
            bch_31_3.encode(m1 ^ m2),
        )

    def test_wrong_length_rejected(self, bch_31_3):
        with pytest.raises(ValueError):
            bch_31_3.encode(np.zeros(15, dtype=np.uint8))

    def test_non_binary_rejected(self, bch_31_3):
        with pytest.raises(ValueError):
            bch_31_3.encode(np.full(16, 2))


class TestDecoding:
    def test_error_free(self, bch_31_3):
        msg = np.zeros(16, dtype=np.uint8)
        cw = bch_31_3.encode(msg)
        corrected, n = bch_31_3.decode(cw)
        assert n == 0
        assert np.array_equal(corrected, cw)

    @pytest.mark.parametrize("n_errors", [1, 2, 3])
    def test_corrects_up_to_t(self, bch_31_3, n_errors):
        rng = np.random.default_rng(n_errors)
        for _ in range(15):
            msg = rng.integers(0, 2, 16).astype(np.uint8)
            cw = bch_31_3.encode(msg)
            pos = rng.choice(31, size=n_errors, replace=False)
            rx = cw.copy()
            rx[pos] ^= 1
            corrected, found = bch_31_3.decode(rx)
            assert found == n_errors
            assert np.array_equal(corrected, cw)

    def test_e6_outer_code_corrects_exactly_t(self):
        """BCH(255,131,t=18), the outer code of E6's conventional key
        generators, corrects a word carrying its full 18 errors."""
        code = BchCode.design(8, 18)
        assert (code.n, code.k, code.t) == (255, 131, 18)
        rng = np.random.default_rng(0)
        cw = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
        rx = cw.copy()
        rx[rng.choice(code.n, size=18, replace=False)] ^= 1
        corrected, found = code.decode(rx)
        assert found == 18
        assert np.array_equal(corrected, cw)

    def test_beyond_capacity_detected_or_wrong(self, bch_31_3):
        """> t errors either raise or land on a *different* codeword —
        never silently return a non-codeword."""
        rng = np.random.default_rng(9)
        cw = bch_31_3.encode(np.zeros(16, dtype=np.uint8))
        detected = 0
        for _ in range(20):
            pos = rng.choice(31, size=6, replace=False)
            rx = cw.copy()
            rx[pos] ^= 1
            try:
                out, _ = bch_31_3.decode(rx)
                assert bch_31_3.is_codeword(out)
            except BchDecodingError:
                detected += 1
        assert detected > 0

    def test_wrong_length_rejected(self, bch_31_3):
        with pytest.raises(ValueError):
            bch_31_3.decode(np.zeros(30, dtype=np.uint8))


class TestShortening:
    def test_dimensions(self):
        full = BchCode.design(7, 5)
        code = full.shortened(80)
        assert code.n == 80
        # shortening drops message bits only: parity width is untouched
        assert code.n_parity == full.n_parity
        assert code.k == 80 - full.n_parity

    def test_roundtrip_with_errors(self):
        code = BchCode.design(7, 5).shortened(80)
        rng = np.random.default_rng(2)
        msg = rng.integers(0, 2, code.k).astype(np.uint8)
        cw = code.encode(msg)
        pos = rng.choice(code.n, size=5, replace=False)
        rx = cw.copy()
        rx[pos] ^= 1
        corrected, found = code.decode(rx)
        assert found == 5
        assert np.array_equal(code.extract_message(corrected), msg)

    def test_cannot_lengthen(self, bch_31_3):
        with pytest.raises(ValueError):
            bch_31_3.shortened(40)

    def test_cannot_consume_all_message_bits(self, bch_31_3):
        with pytest.raises(ValueError):
            bch_31_3.shortened(15)  # would leave k = 0


class TestStandardCodes:
    def test_palette_nonempty_and_valid(self):
        palette = standard_codes(max_m=7, max_t=6)
        assert len(palette) > 10
        for code in palette:
            assert code.k >= 8
            assert code.n == 2**code.field.m - 1

    def test_palette_sorted_families(self):
        palette = standard_codes(max_m=6, max_t=4)
        lengths = {code.n for code in palette}
        assert lengths == {31, 63}

    def test_coset_dimension_equals_generator_degree(self):
        """``k`` comes from the cyclotomic cosets of ``1 .. 2t``; it is the
        dimension the generator polynomial's degree gives, for every code
        of the E6 palette."""
        for code in standard_codes():
            assert code.n - poly_degree(code.generator) == code.k, str(code)

    def test_building_the_palette_builds_no_generator(self):
        palette = standard_codes()
        assert len(palette) == 145
        assert all("generator" not in code.__dict__ for code in palette)

    def test_generator_built_on_first_encode(self):
        """BCH(255,131,t=18): the generator is built by the first encode,
        and the word round-trips through decode."""
        code = BchCode.design(8, 18)
        assert "generator" not in code.__dict__
        rng = np.random.default_rng(1)
        msg = rng.integers(0, 2, code.k).astype(np.uint8)
        cw = code.encode(msg)
        assert "generator" in code.__dict__
        assert poly_degree(code.generator) == code.n - code.k == 124
        corrected, found = code.decode(cw)
        assert found == 0
        assert np.array_equal(code.extract_message(corrected), msg)
        short = code.shortened(200)
        assert np.array_equal(short.generator, code.generator)

"""Error correction from scratch: GF(2^m), BCH, repetition, area models."""

from .area import (
    AreaBreakdown,
    bch_decoder_area,
    gf_multiplier_area,
    golay_decoder_area,
    keygen_area,
    outer_decoder_area,
    repetition_decoder_area,
)
from .bch import BchCode, BchDecodingError, standard_codes
from .concatenated import ConcatenatedCode, KeyCodec
from .golay import GOLAY_GENERATOR, GolayCode
from .galois import (
    PRIMITIVE_POLYS,
    GF2m,
    poly_degree,
    poly_lcm_gf2,
    poly_mod_gf2,
    poly_mul_gf2,
    poly_remainder_rows,
    poly_trim,
)
from .repetition import RepetitionCode

__all__ = [
    "AreaBreakdown",
    "BchCode",
    "BchDecodingError",
    "ConcatenatedCode",
    "GF2m",
    "GOLAY_GENERATOR",
    "GolayCode",
    "KeyCodec",
    "PRIMITIVE_POLYS",
    "RepetitionCode",
    "bch_decoder_area",
    "gf_multiplier_area",
    "golay_decoder_area",
    "keygen_area",
    "outer_decoder_area",
    "poly_degree",
    "poly_lcm_gf2",
    "poly_mod_gf2",
    "poly_mul_gf2",
    "poly_remainder_rows",
    "poly_trim",
    "repetition_decoder_area",
    "standard_codes",
]

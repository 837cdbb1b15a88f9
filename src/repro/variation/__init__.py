"""Process-variation Monte-Carlo: populations, chips, spatial fields, and the sampler."""

from .chip import NMOS, PMOS, Chip, PopulationView, grid_positions
from .process import VariationModel
from .spatial import (
    SYMMETRIC_RESIDUAL,
    LayoutStyle,
    correlated_field,
    effective_systematic,
    systematic_field,
)

__all__ = [
    "Chip",
    "LayoutStyle",
    "NMOS",
    "PMOS",
    "PopulationView",
    "SYMMETRIC_RESIDUAL",
    "VariationModel",
    "correlated_field",
    "effective_systematic",
    "grid_positions",
    "systematic_field",
]

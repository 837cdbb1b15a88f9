"""Core PUF architectures: designs, instances, pairing and readout."""

from .aro_puf import ARO_IDLE_POLICY, aro_design
from .base import PufDesign, RoPufInstance
from .factory import DESIGNS, Study, design_by_name, make_study
from .pairing import (
    ChainPairing,
    DistantPairing,
    NeighborPairing,
    PairingScheme,
    RandomDisjointPairing,
)
from .population import (
    BatchStudy,
    PopulationView,
    RamColumns,
    make_batch_study,
)
from .readout import ReadoutConfig, compare_pairs, voted_response
from .selection import StaticPairing, select_stable_pairs, selection_margins
from .ro_puf import CONVENTIONAL_IDLE_POLICY, conventional_design

__all__ = [
    "ARO_IDLE_POLICY",
    "BatchStudy",
    "CONVENTIONAL_IDLE_POLICY",
    "ChainPairing",
    "DESIGNS",
    "DistantPairing",
    "NeighborPairing",
    "PairingScheme",
    "PopulationView",
    "PufDesign",
    "RamColumns",
    "RandomDisjointPairing",
    "ReadoutConfig",
    "RoPufInstance",
    "StaticPairing",
    "Study",
    "aro_design",
    "compare_pairs",
    "conventional_design",
    "design_by_name",
    "select_stable_pairs",
    "selection_margins",
    "make_batch_study",
    "make_study",
    "voted_response",
]

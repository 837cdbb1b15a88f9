"""repro — ARO-PUF: an aging-resistant ring-oscillator PUF, reproduced.

A simulation framework for ring-oscillator physically unclonable functions
(RO-PUFs) with first-class transistor aging, reproducing Rahman, Forte,
Fahrny & Tehranipoor, *"ARO-PUF: An aging-resistant ring oscillator PUF
design"*, DATE 2014.

Quick start::

    from repro import aro_design, conventional_design, make_study
    from repro.metrics import uniqueness, reliability

    study = make_study(aro_design(n_ros=256), n_chips=20, rng=42)
    fresh = study.responses()
    aged = study.responses(t_years=10.0)
    print(uniqueness(fresh).percent(), reliability(fresh, aged).percent())

Package map (bottom-up):

* :mod:`repro.transistor` — technology cards, alpha-power-law devices
* :mod:`repro.variation` — process-variation Monte-Carlo (the entropy)
* :mod:`repro.circuit` — RO netlists, event simulation, analytic timing
* :mod:`repro.aging` — NBTI / PBTI / HCI and mission profiles
* :mod:`repro.environment` — temperature / supply corners, readout noise
* :mod:`repro.core` — the conventional RO-PUF and the ARO-PUF
* :mod:`repro.metrics` — uniqueness, reliability, randomness batteries
* :mod:`repro.ecc` — GF(2^m), BCH, repetition codes, area models
* :mod:`repro.keygen` — fuzzy extractor and key-generator design space
* :mod:`repro.protocol` — CRP authentication and modeling-attack analysis
* :mod:`repro.analysis` — the paper's evaluation suite (E1 .. E11)
* :mod:`repro.telemetry` — tracing spans, kernel counters, run manifests
"""

import os

# OpenBLAS reads this once, when numpy loads it, so it must be set before
# the first numpy import.  By default an idle OpenBLAS worker busy-waits for
# 2**28 cycles after it is created and after every threaded call: on a
# 2-vCPU host that was 0.25-0.26 s of the ~0.7 s CPU of a `check-anchors`
# process, and the worker's real work is under one 0.01 s clock tick.  At
# 4 (2**4 cycles, the smallest value OpenBLAS accepts) the idle worker
# sleeps at once.  The thread count, the work split and every result bit
# are unchanged.  A value the user exported wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from . import telemetry
from ._rng import DEFAULT_SEED, as_generator, spawn
from .aging import AgingSimulator, IdlePolicy, MissionProfile
from .analysis import ExperimentConfig
from .core import (
    BatchStudy,
    PopulationView,
    PufDesign,
    RoPufInstance,
    Study,
    aro_design,
    conventional_design,
    design_by_name,
    make_batch_study,
    make_study,
)
from .environment import OperatingConditions, celsius
from .keygen import FuzzyExtractor, best_design
from .transistor import TechnologyCard, get_technology, ptm45, ptm90
from .variation import Chip, LayoutStyle, VariationModel

__version__ = "1.0.0"

__all__ = [
    "AgingSimulator",
    "BatchStudy",
    "Chip",
    "DEFAULT_SEED",
    "ExperimentConfig",
    "FuzzyExtractor",
    "IdlePolicy",
    "LayoutStyle",
    "MissionProfile",
    "OperatingConditions",
    "PopulationView",
    "PufDesign",
    "RoPufInstance",
    "Study",
    "TechnologyCard",
    "VariationModel",
    "__version__",
    "aro_design",
    "as_generator",
    "best_design",
    "celsius",
    "conventional_design",
    "design_by_name",
    "get_technology",
    "make_batch_study",
    "make_study",
    "ptm45",
    "ptm90",
    "spawn",
    "telemetry",
]

"""Shared fixtures: small-but-meaningful populations for fast tests.

Statistical assertions in this suite use deliberately wide bands; the
paper-scale tables are what ``repro run all`` prints, quoted in
EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import aro_design, conventional_design, make_study
from repro.transistor import ptm90


@pytest.fixture(scope="session")
def tech():
    return ptm90()


@pytest.fixture(scope="session")
def small_conventional():
    """Conventional design small enough for per-test fabrication."""
    return conventional_design(n_ros=32)


@pytest.fixture(scope="session")
def small_aro():
    return aro_design(n_ros=32)


@pytest.fixture(scope="session")
def conventional_study(small_conventional):
    """A fabricated 8-chip conventional population (session-cached)."""
    return make_study(small_conventional, n_chips=8, rng=123)


@pytest.fixture(scope="session")
def aro_study(small_aro):
    return make_study(small_aro, n_chips=8, rng=123)


@pytest.fixture
def rng():
    return np.random.default_rng(2014)

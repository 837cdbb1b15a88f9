"""One engine, every configuration: byte-identical results.

Draws a design, a population size (including counts that neither the
worker count nor the block size divides), a block size, ``jobs`` and
``store``, and a year / corner / mechanism, and asserts that responses,
margin-histogram counts and single-mechanism frequencies equal those of
the ``jobs=1, store="ram"`` study byte for byte.  Every ``jobs=2``
example submits to one module-wide process pool, so the property costs
seconds, not a pool start-up per example.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aro_design, conventional_design, make_batch_study
from repro.environment import OperatingConditions, celsius
from repro.metrics.margins import histogram_edges
from repro.parallel import executor as executor_mod
from repro.parallel.worker import worker_init

DESIGNS = {
    "aro-puf": aro_design(n_ros=16, n_stages=3),
    "ro-puf": conventional_design(n_ros=16, n_stages=5),
}
CORNERS = (
    OperatingConditions.nominal(),
    OperatingConditions(temperature_k=celsius(85.0)),
    OperatingConditions(temperature_k=celsius(-20.0), vdd=1.1),
)
EDGES = histogram_edges(0.02, 16)

_references = {}


def _reference(design_name, n_chips, seed):
    key = (design_name, n_chips, seed)
    if key not in _references:
        _references[key] = make_batch_study(DESIGNS[design_name], n_chips, rng=seed)
    return _references[key]


class _SharedPool:
    """Hands every study the same pool; a study's close leaves it up."""

    def __init__(self, pool):
        self._pool = pool

    def submit(self, *args, **kwargs):
        return self._pool.submit(*args, **kwargs)

    def shutdown(self, wait=True):
        pass


@pytest.fixture(scope="module")
def shared_pool():
    pool = ProcessPoolExecutor(max_workers=2, initializer=worker_init)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            executor_mod, "ProcessPoolExecutor", lambda **kw: _SharedPool(pool)
        )
        yield
    pool.shutdown(wait=True)


@settings(max_examples=100, deadline=None)
@given(
    design=st.sampled_from(sorted(DESIGNS)),
    n_chips=st.integers(1, 9),
    seed=st.integers(0, 3),
    block_size=st.none() | st.integers(1, 5),
    jobs=st.sampled_from([1, 2]),
    store=st.sampled_from(["ram", "mmap"]),
    year=st.just(0.0) | st.floats(0.0, 15.0),
    corner=st.sampled_from(range(len(CORNERS))),
    mechanism=st.sampled_from(["bti", "hci"]),
)
def test_every_configuration_matches_serial_ram(
    shared_pool, design, n_chips, seed, block_size, jobs, store, year, corner, mechanism
):
    reference = _reference(design, n_chips, seed)
    cond = CORNERS[corner]
    with make_batch_study(
        DESIGNS[design],
        n_chips,
        rng=seed,
        jobs=jobs,
        store=store,
        block_size=block_size,
    ) as study:
        got = (
            study.responses(t_years=year, conditions=cond),
            study.margin_histogram(EDGES, t_years=year, conditions=cond),
            study.mechanism_frequencies(year, mechanism, cond),
            study.frequencies(year, cond),
        )
        want = (
            reference.responses(t_years=year, conditions=cond),
            reference.margin_histogram(EDGES, t_years=year, conditions=cond),
            reference.mechanism_frequencies(year, mechanism, cond),
            reference.frequencies(year, cond),
        )
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

"""One engine, every configuration: byte-identical results.

Draws a design, a population size (including counts that neither the
worker count nor the block size divides), a block size, ``jobs`` and
``store``, and a year / corner / mechanism / challenge, and asserts
that responses, margin-histogram counts, single-mechanism and
golden-path frequencies equal those of the ``jobs=1, store="ram"``
study byte for byte — the golden path also against a RAM study whose
aging deltas were memoised first.  A drawn ``reattach`` makes an
``mmap`` study fabricate into a named store directory and a second
study re-attach it; both must match.  A second property draws a year list
and asserts that the one-stream ``flip_counts`` sweep equals per-corner
``responses`` plus an XOR count.  Every ``jobs=2`` example submits to
one module-wide process pool, so the properties cost seconds, not a pool
start-up per example.
"""

import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
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


def _queries(study, challenge, year, cond, mechanism):
    return (
        study.responses(challenge, year, conditions=cond),
        study.margin_histogram(EDGES, challenge, year, conditions=cond),
        study.mechanism_frequencies(year, mechanism, cond),
        study.frequencies(year, cond),
    )


def _assert_same(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    design=st.sampled_from(sorted(DESIGNS)),
    n_chips=st.integers(1, 9),
    seed=st.integers(0, 3),
    block_size=st.none() | st.integers(1, 5),
    jobs=st.sampled_from([1, 2]),
    store=st.sampled_from(["ram", "mmap"]),
    reattach=st.booleans(),
    year=st.just(0.0) | st.floats(0.0, 15.0),
    corner=st.sampled_from(range(len(CORNERS))),
    mechanism=st.sampled_from(["bti", "hci"]),
    challenge=st.none() | st.integers(0, 3),
)
def test_every_configuration_matches_serial_ram(
    shared_pool, design, n_chips, seed, block_size, jobs, store, reattach,
    year, corner, mechanism, challenge,
):
    cond = CORNERS[corner]
    want = _queries(_reference(design, n_chips, seed), challenge, year, cond, mechanism)
    named = store == "mmap" and reattach
    with tempfile.TemporaryDirectory() as store_dir:
        # a named store: the first study fabricates, the second re-attaches
        for _ in range(2 if named else 1):
            with make_batch_study(
                DESIGNS[design],
                n_chips,
                rng=seed,
                jobs=jobs,
                store=store,
                block_size=block_size,
                store_dir=store_dir if named else None,
            ) as study:
                got = _queries(study, challenge, year, cond, mechanism)
            _assert_same(got, want)
    # golden-path frequencies do not depend on a memoised aging delta
    history = make_batch_study(DESIGNS[design], n_chips, rng=seed)
    history.aging.delta(year)
    assert history.frequencies(year, cond).tobytes() == got[3].tobytes()


def _xor_counts(reference, years, challenge, cond):
    golden = reference.responses(challenge, conditions=cond)
    counts = np.array(
        [
            np.count_nonzero(
                reference.responses(challenge, t, conditions=cond) != golden,
                axis=1,
            )
            for t in years
        ],
        dtype=np.int64,
    ).reshape(len(years), golden.shape[0])
    return golden, counts


@settings(max_examples=60, deadline=None)
@given(
    design=st.sampled_from(sorted(DESIGNS)),
    n_chips=st.integers(1, 9),
    seed=st.integers(0, 3),
    block_size=st.none() | st.integers(1, 5),
    jobs=st.sampled_from([1, 2]),
    store=st.sampled_from(["ram", "mmap"]),
    years=st.lists(st.just(0.0) | st.floats(0.0, 15.0), max_size=5),
    corner=st.sampled_from(range(len(CORNERS))),
    challenge=st.none() | st.integers(0, 3),
)
def test_flip_counts_equal_per_corner_responses(
    shared_pool, design, n_chips, seed, block_size, jobs, store, years, corner,
    challenge,
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
        got = study.flip_counts(years, challenge, conditions=cond)
    _assert_same(got, _xor_counts(reference, years, challenge, cond))


@pytest.mark.parametrize("store", ["ram", "mmap"])
@pytest.mark.parametrize("block_size", [1, 4])
def test_flip_counts_through_both_bti_clip_branches(block_size, store):
    """Conventional silicon at large t: some source blocks reach the BTI
    cap and clip, others are proved below it and skip the pass."""
    design, n_chips, years = "ro-puf", 9, (0.5, 15.0, 60.0)
    with telemetry.session() as tr:
        with make_batch_study(
            DESIGNS[design], n_chips, rng=0, store=store, block_size=block_size
        ) as study:
            got = study.flip_counts(years)
    assert tr.counters["aging.clip_applied"] > 0
    assert tr.counters["aging.clip_skipped"] > 0
    _assert_same(got, _xor_counts(_reference(design, n_chips, 0), years, None, None))

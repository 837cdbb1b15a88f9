"""The NumPy draw-order identities the population readout relies on.

Reading a whole population in one call gives the same bits as reading
it chip by chip only because of these properties of NumPy's
``Generator`` and of the delay model:

* a sized ``integers(0, 2, size=n)`` draw is ``n`` scalar draws, values
  and end state (the sorting attack's coin flips, ``predict_bits``);
* consecutive ``standard_normal`` draws of any shapes are one C-order
  draw of their total size, and ``standard_normal(out=row)`` fills a row
  with what a sized draw returns (the counter noise of a shared
  generator, and of one generator per row, ``noisy_counts``);
* ``permutation(n)`` is ``arange(n)`` shuffled in place (the CRP pair
  tables: ``RandomDisjointPairing`` shuffles the rows of one arange
  block and must keep drawing the tables ``permutation`` drew);
* the frequencies of chips stacked along a leading axis are each chip's
  own frequencies, word for word (``PufDesign.frequencies``, which
  ``Study.frequencies`` stacks: the per-chip reference that stands in
  for the engine's rows in ``TestOneEngine``).

A NumPy release that breaks one fails here, loudly, instead of silently
moving E5, E9, E10 or E11.  Block seeding against ``default_rng`` is
``test_rng_block_seeding.py``'s.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aro_design, conventional_design, make_batch_study, make_study

seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(0, 300), after=st.integers(1, 5))
def test_sized_coin_flips_are_scalar_coin_flips(seed, n, after):
    sized, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = sized.integers(0, 2, size=n)
    loop = np.array([scalar.integers(0, 2) for _ in range(n)], dtype=batch.dtype)
    assert batch.tobytes() == loop.tobytes()
    assert sized.bit_generator.state == scalar.bit_generator.state
    # the streams go on together
    assert sized.integers(0, 2**40, size=after).tolist() == [
        scalar.integers(0, 2**40) for _ in range(after)
    ]


shapes = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, parts=shapes)
def test_consecutive_normals_are_one_c_order_draw(seed, parts):
    split, whole = np.random.default_rng(seed), np.random.default_rng(seed)
    pieces = np.concatenate([split.standard_normal(s).ravel() for s in parts])
    one = whole.standard_normal(sum(int(np.prod(s)) for s in parts))
    assert pieces.tobytes() == one.tobytes()
    assert split.bit_generator.state == whole.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(seed=seeds, rows=st.integers(1, 6), shape=st.sampled_from([(3,), (2, 5), (4, 2, 3)]))
def test_normals_drawn_into_rows_are_sized_draws(seed, rows, shape):
    into, sized = np.random.default_rng(seed), np.random.default_rng(seed)
    out = np.empty((rows,) + shape)
    for row in out:
        into.standard_normal(out=row)
    assert out.tobytes() == sized.standard_normal((rows,) + shape).tobytes()
    assert into.bit_generator.state == sized.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(0, 300), rows=st.integers(1, 4))
def test_shuffled_arange_rows_are_permutations(seed, n, rows):
    """``permutation(n)`` shuffles a fresh ``arange(n)``; shuffling the
    rows of one arange block in place draws the same tables
    (``RandomDisjointPairing.pairs`` and ``pairs_many``)."""
    block, single = np.random.default_rng(seed), np.random.default_rng(seed)
    out = np.empty((rows, n), dtype=np.int64)
    out[:] = np.arange(n)
    for row in out:
        block.shuffle(row)
    ref = np.stack([single.permutation(n) for _ in range(rows)])
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
    assert block.bit_generator.state == single.bit_generator.state


DESIGNS = {
    "ro-puf": conventional_design(n_ros=256),
    "aro-puf": aro_design(n_ros=256),
}


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def studies(request):
    # the paper's scale: 50 chips of 256 oscillators, with the per-chip
    # reference that draws the same silicon from the same seed
    design = DESIGNS[request.param]
    return (
        make_batch_study(design, 50, rng=20140324),
        make_study(design, 50, rng=20140324),
    )


@pytest.mark.parametrize("n_chips", [1, 7, 50])
@pytest.mark.parametrize("t_years", [0.0, 2.0, 10.0])
def test_stacked_frequencies_are_per_chip_frequencies(studies, t_years, n_chips):
    study, reference = studies
    design = study.design
    vth = (study.view.vth + study.aging.delta(t_years))[:n_chips]
    stacked = design.frequencies(vth, study.view.tc_scale[:n_chips])
    assert stacked.shape == (n_chips, design.n_ros)

    def words(freqs):
        return [x.hex() for x in freqs.tolist()]

    # aged through the population's delta, one row at a time, through the
    # chip's own delta, and stacked by the per-chip reference study
    per_chip = reference.aged_instances(t_years)
    via_study = reference.frequencies(t_years)
    for i, row in enumerate(stacked):
        via_population = design.frequencies(vth[i], study.view.tc_scale[i])
        via_chip = per_chip[i].frequencies()
        assert words(row) == words(via_population) == words(via_chip)
        assert words(row) == words(via_study[i])

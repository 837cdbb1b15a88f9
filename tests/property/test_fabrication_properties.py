"""One block fabricator: byte-identical to a per-chip reference loop.

:meth:`VariationModel.fabricate_block` and
:meth:`AgingSimulator.fabricate_block` fill whole ``(B, n_ros, n_stages,
2)`` blocks, building the grid, systematic field and correlated-field
factor once per block.  The reference below draws one chip at a time in
the documented order (inter-die scalar, correlated field, white
mismatch, ``tc_scale``; NBTI before HCI prefactors) and folds the aging
coefficients element by element.  The properties draw keys, geometry
(including 2 ROs, non-square grids and one grid past the Cholesky limit),
odd stage counts, both layouts, both technology cards and block splits,
and compare bytes: the block outputs, ``sample_chip`` /
``sample_population``, and every mmap store column against the in-RAM
``PopulationView`` / ``PopulationAging`` tensors and the reference.  The
store assembles each block in fabrication sub-blocks, so one property
draws store blocks around the sub-block size (one chip, one short of a
sub-block, exactly one, one past, and more than two), serially and with
two shard workers fabricating one shared store.
"""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._rng import as_generator, spawn, spawn_keys
from repro.aging import hci, nbti
from repro.aging.schedule import MissionProfile
from repro.core import aro_design, conventional_design, make_batch_study
from repro.store.store import COLUMNS, FAB_SUBBLOCK_ELEMS, PopulationStore
from repro.transistor import ptm45, ptm90
from repro.variation import LayoutStyle, VariationModel
from repro.variation.chip import NMOS, PMOS, grid_positions
from repro.variation.spatial import (
    _CHOLESKY_LIMIT,
    correlated_field,
    effective_systematic,
)

TECHS = {"ptm90": ptm90(), "ptm45": ptm45()}
DESIGNS = {"aro": aro_design, "conv": conventional_design}
#: 2 ROs, square and non-square grids, and one grid on the FFT path
N_ROS = (2, 3, 7, 9, 10, 17, 30, _CHOLESKY_LIMIT + 6)


def reference_chip(model: VariationModel, key) -> tuple:
    """``(vth, tc_scale)`` of one chip, drawn the per-chip way."""
    gen = as_generator(key)
    tech, var = model.tech, model.tech.variation
    positions = grid_positions(model.n_ros)
    shape = (model.n_ros, model.n_stages, 2)
    inter_die = var.sigma_inter_die * gen.standard_normal()
    corr = correlated_field(
        positions,
        var.sigma_intra_die * np.sqrt(var.correlated_fraction),
        var.correlation_length,
        rng=gen,
    )
    white = var.sigma_intra_die * np.sqrt(1.0 - var.correlated_fraction) * (
        gen.standard_normal(shape)
    )
    tc_scale = 1.0 + tech.tc_mismatch_cv * gen.standard_normal(shape)
    systematic = effective_systematic(positions, var.sigma_systematic, model.layout)
    per_ro = inter_die + corr + systematic
    vth = np.empty(shape)
    vth[:, :, NMOS] = tech.vth_n
    vth[:, :, PMOS] = tech.vth_p
    vth += per_ro[:, None, None] + white
    return vth, tc_scale


def reference_aging(design, mission: MissionProfile, key) -> dict:
    """One chip's four aging columns, sampled and folded the per-chip way."""
    from repro.aging.stress import compute_stress

    gen = as_generator(key)
    tech = design.tech
    shape = (design.n_ros, design.n_stages, 2)
    a = nbti.sample_prefactors(shape, tech.nbti, gen)
    b = hci.sample_prefactors(shape, tech.hci, gen)
    k_t = nbti.temperature_acceleration(mission.temperature_k, tech.nbti)
    bti_coeff = np.empty(shape)
    bti_coeff[..., PMOS] = (1.0 * a[..., PMOS]) * k_t
    bti_coeff[..., NMOS] = (tech.nbti.pbti_factor * a[..., NMOS]) * k_t
    hci_coeff = np.empty(shape)
    hci_coeff[..., PMOS] = hci.PMOS_HCI_FACTOR * b[..., PMOS]
    hci_coeff[..., NMOS] = 1.0 * b[..., NMOS]
    stress = compute_stress(design.cell, mission, None)
    duty = np.empty((design.n_stages, 2))
    duty[:, PMOS] = stress.nbti_duty[:, PMOS]
    duty[:, NMOS] = stress.pbti_duty[:, NMOS]
    tpy = np.empty((design.n_stages, 2))
    tpy[:, PMOS] = stress.transitions_per_year[:, PMOS]
    tpy[:, NMOS] = stress.transitions_per_year[:, NMOS]
    return {
        "bti_coeff": bti_coeff,
        "hci_coeff": hci_coeff,
        "bti_dir": bti_coeff * duty**tech.nbti.n,
        "hci_dir": hci_coeff * (tpy / tech.hci.ref_transitions) ** tech.hci.m,
    }


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _ram_columns(study) -> dict:
    return {name: study.source.column(name) for name in COLUMNS}


@settings(max_examples=40, deadline=None)
@given(
    tech=st.sampled_from(sorted(TECHS)),
    layout=st.sampled_from(list(LayoutStyle)),
    n_ros=st.sampled_from(N_ROS),
    n_stages=st.sampled_from((3, 5, 7)),
    seed=st.integers(0, 2**32 - 1),
    n_chips=st.integers(1, 5),
    cuts=st.sets(st.integers(1, 4)),
)
@example("ptm90", LayoutStyle.CONVENTIONAL, 2, 3, 0, 2, {1})
@example("ptm45", LayoutStyle.SYMMETRIC, _CHOLESKY_LIMIT + 6, 7, 1, 1, set())
def test_process_block_matches_per_chip_reference(
    tech, layout, n_ros, n_stages, seed, n_chips, cuts
):
    model = VariationModel(TECHS[tech], n_ros, n_stages, layout)
    if n_ros > _CHOLESKY_LIMIT:
        n_chips = 1  # one FFT-path chip keeps the property fast
    keys = spawn_keys(seed, n_chips)
    expected = [reference_chip(model, key) for key in keys]

    shape = (n_chips, n_ros, n_stages, 2)
    vth, tc_scale = np.empty(shape), np.empty(shape)
    bounds = [0, *sorted(c for c in cuts if c < n_chips), n_chips]
    for lo, hi in zip(bounds, bounds[1:]):
        model.fabricate_block(keys[lo:hi], vth[lo:hi], tc_scale[lo:hi])
    assert _same(vth, [v for v, _ in expected])
    assert _same(tc_scale, [t for _, t in expected])

    # leaving out tc_scale (the last draw) changes no vth byte
    vth_only = np.empty(shape)
    model.fabricate_block(keys, vth_only)
    assert _same(vth_only, vth)

    chip = model.sample_chip(keys[0], chip_id=5)
    assert _same(chip.vth, vth[0]) and _same(chip.tc_scale, tc_scale[0])
    assert chip.chip_id == 5 and _same(chip.positions, grid_positions(n_ros))
    population = model.sample_population(n_chips, rng=seed)
    assert _same(population.vth, vth)
    assert _same(population.tc_scale, tc_scale)
    assert _same(population.positions, grid_positions(n_ros))
    assert population.chip_ids == list(range(n_chips))


@settings(max_examples=25, deadline=None)
@given(
    design=st.sampled_from(sorted(DESIGNS)),
    tech=st.sampled_from(sorted(TECHS)),
    n_ros=st.sampled_from((2, 7, 10, 16)),
    n_stages=st.sampled_from((3, 5)),
    seed=st.integers(0, 2**32 - 1),
    n_chips=st.integers(1, 7),
    block_size=st.integers(1, 8),
    order=st.permutations(COLUMNS),
)
def test_store_columns_match_ram_tensors_and_reference(
    design, tech, n_ros, n_stages, seed, n_chips, block_size, order
):
    design = DESIGNS[design](n_ros, n_stages=n_stages, tech=TECHS[tech])
    mission = MissionProfile()
    ram_columns = _ram_columns(make_batch_study(design, n_chips, rng=seed))
    fab_rng, aging_rng = spawn(seed, 2)
    model = design.variation_model()
    expected_chips = [reference_chip(model, k) for k in spawn_keys(fab_rng, n_chips)]
    expected_aging = [
        reference_aging(design, mission, k) for k in spawn_keys(aging_rng, n_chips)
    ]
    expected = {
        "vth": [v for v, _ in expected_chips],
        "tc_scale": [t for _, t in expected_chips],
        **{c: [row[c] for row in expected_aging] for c in COLUMNS[2:]},
    }
    with tempfile.TemporaryDirectory() as root:
        with PopulationStore.create(
            root, design, n_chips, mission=mission, rng=seed, block_size=block_size
        ) as store:
            # one column at a time, in a drawn order: each pass replays
            # the chips' streams and fills just its own segment
            for name in order:
                store.ensure_rows(0, n_chips, [name])
            for name in COLUMNS:
                assert _same(store.column(name), ram_columns[name]), name
                assert _same(store.column(name), expected[name]), name


#: the sweep geometry (128 five-stage ROs), whose fabrication sub-block
#: is 37 chips
SUB_N_ROS, SUB_N_STAGES = 128, 5
SUB_ROWS = FAB_SUBBLOCK_ELEMS // (SUB_N_ROS * SUB_N_STAGES * 2)


@settings(max_examples=12, deadline=None)
@given(
    design=st.sampled_from(sorted(DESIGNS)),
    seed=st.integers(0, 2**32 - 1),
    block_size=st.sampled_from(
        (1, SUB_ROWS - 1, SUB_ROWS, SUB_ROWS + 1, 2 * SUB_ROWS + 5)
    ),
    extra=st.integers(0, 2 * SUB_ROWS + 10),
    jobs=st.sampled_from((1, 2)),
)
@example("conv", 0, SUB_ROWS, SUB_ROWS + 1, 1)
@example("aro", 1, 2 * SUB_ROWS + 5, 2 * SUB_ROWS + 6, 2)
def test_store_sub_blocks_match_ram_tensors(design, seed, block_size, extra, jobs):
    """Store blocks around the fabrication sub-block size, serially and
    with two workers fabricating the shared store, equal the RAM tensors."""
    design = DESIGNS[design](SUB_N_ROS, n_stages=SUB_N_STAGES)
    n_chips = 1 + extra
    ram_columns = _ram_columns(make_batch_study(design, n_chips, rng=seed))
    with make_batch_study(
        design, n_chips, rng=seed, store="mmap", jobs=jobs, block_size=block_size
    ) as study:
        # the golden sweep's columns, fabricated by the workers at jobs=2
        study.flip_counts([0.0, 10.0])
        store = study.source.store
        swept = ("vth", "bti_dir", "hci_dir")
        for name in swept:
            assert store.materialised_blocks(name) == store.n_blocks, name
            assert _same(store.column(name), ram_columns[name]), name
        store.ensure_rows(0, n_chips, COLUMNS)
        for name in COLUMNS:
            assert _same(store.column(name), ram_columns[name]), name

"""The run context: each population fabricated once per run, shared
read-only.

A study built inside a :class:`RunContext` must equal one fabricated
afresh, bit for bit, for both designs, for a mission and an idle policy
other than the default (only the :class:`CoefficientFold` differs), and
with its prefactors still drawn on first use.  Nothing shared can be
written, the context holds only the keys it was given, and the CLI runs
that shard or stream keep their own fabrication.
"""

import contextlib
import io

import numpy as np
import pytest

from repro import cli
from repro.aging import IdlePolicy, MissionProfile
from repro.aging.simulator import PopulationAging
from repro.analysis import ExperimentConfig
from repro.core import aro_design, conventional_design
from repro.core import population as population_mod
from repro.core.population import RunContext, make_batch_study
from repro.variation.chip import Chip
from repro.variation.process import VariationModel

N_CHIPS, N_ROS, SEED = 6, 32, 7
DESIGNS = {"ro-puf": conventional_design(N_ROS), "aro-puf": aro_design(N_ROS)}
MISSIONS = {
    "default": dict(),
    "duty": dict(mission=MissionProfile(eval_duty=1e-3)),
    "policy": dict(idle_policy=IdlePolicy.FREE_RUNNING),
}
COLUMNS = ("vth", "tc_scale", "bti_coeff", "hci_coeff", "bti_dir", "hci_dir")


def _context():
    return RunContext(DESIGNS.values(), N_CHIPS, SEED)


def _assert_same_study(shared, fresh):
    for name in COLUMNS:
        a, b = shared.source.column(name), fresh.source.column(name)
        assert a.tobytes() == b.tobytes(), name
    for name in ("nbti_a", "hci_b"):
        assert getattr(shared.aging, name).tobytes() == getattr(fresh.aging, name).tobytes()
    for t in (0.0, 10.0):
        assert shared.frequencies(t).tobytes() == fresh.frequencies(t).tobytes()
    golden, counts = shared.flip_counts([2.0, 10.0])
    want = fresh.flip_counts([2.0, 10.0])
    assert golden.tobytes() == want[0].tobytes()
    assert counts.tobytes() == want[1].tobytes()
    assert shared.aging.delta(5.0).tobytes() == fresh.aging.delta(5.0).tobytes()


@pytest.mark.parametrize("mission", sorted(MISSIONS))
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_shared_study_equals_a_fresh_one(name, mission):
    kwargs = dict(MISSIONS[mission], rng=SEED)
    fresh = make_batch_study(DESIGNS[name], N_CHIPS, **kwargs)
    with _context():
        # a default-mission study of the other design first, so this one
        # reads prefactors another study drew
        other = "aro-puf" if name == "ro-puf" else "ro-puf"
        make_batch_study(DESIGNS[other], N_CHIPS, rng=SEED).aging
        shared = make_batch_study(DESIGNS[name], N_CHIPS, **kwargs)
        again = make_batch_study(DESIGNS[name], N_CHIPS, rng=SEED)
        assert again.view is shared.view
        assert again.aging.nbti_a is shared.aging.nbti_a
        _assert_same_study(shared, fresh)


def test_prefactors_are_drawn_on_first_use_and_once(monkeypatch):
    draws = []
    sample = PopulationAging.sample.__func__

    def counted(cls, *args, **kwargs):
        draws.append(args)
        return sample(cls, *args, **kwargs)

    monkeypatch.setattr(PopulationAging, "sample", classmethod(counted))
    with _context():
        studies = [
            make_batch_study(design, N_CHIPS, rng=SEED, **kwargs)
            for design in DESIGNS.values()
            for kwargs in MISSIONS.values()
        ]
        for study in studies:
            study.responses()
        assert draws == []
        for study in studies:
            study.responses(t_years=10.0)
        assert len(draws) == 1


def test_shared_arrays_are_read_only():
    with _context():
        study = make_batch_study(DESIGNS["aro-puf"], N_CHIPS, rng=SEED)
        arrays = [
            study.view.vth,
            study.view.tc_scale,
            study.view.positions,
            study.aging.nbti_a,
            study.aging.hci_b,
            # memoised corners, read-only like the arrays they come from
            study.frequencies(),
            study.frequencies(1.0),
        ]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0


def test_only_the_given_keys_are_shared():
    """Another seed, chip count or variation model, or a generator for
    ``rng``, fabricates afresh; the context keeps no such key."""
    with _context() as ctx:
        shared = make_batch_study(DESIGNS["ro-puf"], N_CHIPS, rng=SEED)
        others = [
            make_batch_study(DESIGNS["ro-puf"], N_CHIPS, rng=SEED + 1),
            make_batch_study(DESIGNS["ro-puf"], N_CHIPS + 1, rng=SEED),
            make_batch_study(conventional_design(N_ROS, 3), N_CHIPS, rng=SEED),
            make_batch_study(
                DESIGNS["ro-puf"], N_CHIPS, rng=np.random.default_rng(SEED)
            ),
        ]
        for study in others:
            assert study.view.vth is not shared.view.vth
            assert study.view.vth.flags.writeable
        assert len(ctx._views) == 2
        assert make_batch_study(DESIGNS["ro-puf"], N_CHIPS, rng=SEED).view is shared.view
    assert population_mod._ACTIVE.get() is None


def test_jobs_and_stores_keep_their_own_fabrication():
    assert isinstance(
        ExperimentConfig(jobs=2).run_context(), contextlib.nullcontext
    )
    assert isinstance(
        ExperimentConfig(store="mmap").run_context(), contextlib.nullcontext
    )


def _count_fabrications(monkeypatch, argv):
    calls = []
    sample = VariationModel.sample_population

    def counted(self, n_chips, rng=None):
        calls.append((self.layout, n_chips))
        return sample(self, n_chips, rng)

    monkeypatch.setattr(VariationModel, "sample_population", counted)
    created = []
    init = population_mod.RunContext.__init__

    def recorded(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(population_mod.RunContext, "__init__", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    assert population_mod._ACTIVE.get() is None
    return calls, created


def test_check_anchors_fabricates_each_population_once(monkeypatch):
    """E2, E3, E4 and E13 each fabricate both designs: 8 calls without
    the context, 2 with it."""
    calls, created = _count_fabrications(
        monkeypatch, ["check-anchors", "--chips", "8", "--ros", "32"]
    )
    assert len(created) == 1
    assert len(calls) == 2


def test_a_store_run_retains_nothing(monkeypatch, tmp_path):
    calls, created = _count_fabrications(
        monkeypatch,
        ["run", "e2", "--chips", "4", "--ros", "16", "--store", "mmap",
         "--store-dir", str(tmp_path)],
    )
    assert created == []


def test_the_engine_builds_no_chip(monkeypatch):
    """Fabrication hands the engine stacked tensors and every experiment
    reads the engine's frequency rows: neither ``check-anchors`` nor an
    aged in-RAM corner constructs a per-chip :class:`Chip`, and ``run
    all`` builds only the one chip per design that E11 attacks."""
    built = []
    init = Chip.__post_init__

    def counted(self):
        built.append(self.chip_id)
        init(self)

    monkeypatch.setattr(Chip, "__post_init__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["check-anchors", "--chips", "8", "--ros", "32"])
    study = make_batch_study(DESIGNS["aro-puf"], N_CHIPS, rng=SEED)
    study.frequencies(10.0)
    assert built == []
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", "all", "--chips", "6", "--ros", "16"])
    assert len(built) <= 2

"""Verifier protocol and the authentication study."""

import dataclasses

import numpy as np
import pytest

from repro.core import aro_design, conventional_design, make_batch_study, make_study
from repro.protocol import Verifier, authentication_study
from repro.protocol import authentication as authentication_mod


@pytest.fixture(scope="module")
def study():
    return make_study(aro_design(n_ros=32), n_chips=4, rng=9)


@pytest.fixture()
def verifier(study):
    v = Verifier(threshold=0.25, batch_size=4)
    for i, inst in enumerate(study.instances):
        v.enroll(inst, n_challenges=16, rng=100 + i)
    return v


class TestVerifier:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Verifier(threshold=0.6)
        with pytest.raises(ValueError):
            Verifier(batch_size=0)

    def test_enrolled_chips(self, verifier):
        assert verifier.enrolled_chips() == [0, 1, 2, 3]

    def test_genuine_chip_accepted(self, verifier, study):
        result = verifier.authenticate(0, study.instances[0], rng=1)
        assert result.accepted
        assert result.distance < 0.1

    def test_impostor_rejected(self, verifier, study):
        result = verifier.authenticate(0, study.instances[1], rng=1)
        assert not result.accepted
        assert result.distance > 0.3

    def test_unknown_identity(self, verifier, study):
        with pytest.raises(KeyError):
            verifier.authenticate(99, study.instances[0])

    def test_challenges_never_reused(self, verifier, study):
        before = verifier.remaining_challenges(0)
        verifier.authenticate(0, study.instances[0], rng=1)
        assert verifier.remaining_challenges(0) == before - 4

    def test_exhausted_table_refuses(self, verifier, study):
        for _ in range(4):  # 16 challenges / batch 4
            verifier.authenticate(0, study.instances[0], rng=1)
        with pytest.raises(RuntimeError, match="exhausted"):
            verifier.authenticate(0, study.instances[0], rng=1)


class TestStudy:
    @pytest.fixture(scope="class")
    def result(self):
        studies = {
            "ro-puf": make_study(conventional_design(n_ros=32), 6, rng=4),
            "aro-puf": make_study(aro_design(n_ros=32), 6, rng=4),
        }
        return authentication_study(
            studies,
            years=(0.0, 10.0),
            batch_size=8,
            n_challenges=32,
            rng=5,
        )

    def test_fresh_chips_authenticate(self, result):
        assert result.frr["ro-puf"][0] == 0.0
        assert result.frr["aro-puf"][0] == 0.0

    def test_aro_stays_authenticatable(self, result):
        assert result.frr["aro-puf"][-1] == 0.0

    def test_distances_recorded(self, result):
        assert len(result.genuine_distances["ro-puf"][10.0]) == 6
        assert len(result.impostor_distances["aro-puf"]) == 6

    def test_aging_widens_genuine_distance(self, result):
        import numpy as np

        for name in ("ro-puf", "aro-puf"):
            fresh = np.mean(result.genuine_distances[name][0.0])
            aged = np.mean(result.genuine_distances[name][10.0])
            assert aged >= fresh

    def test_eer_analysis(self, result):
        conv_eer, conv_thr = result.equal_error_rate("ro-puf", 10.0)
        aro_eer, aro_thr = result.equal_error_rate("aro-puf", 10.0)
        assert 0.0 <= conv_eer <= 1.0
        assert aro_eer <= conv_eer
        assert 0.0 < aro_thr < 0.5


def test_stored_pair_tables_replay_what_rebuilt_ones_read(monkeypatch):
    """The verifier authenticates against the pair tables it enrolled
    with.  The study result and the noisy generator's end state equal a
    run whose tables hold no pairs, so that every round rebuilds them."""

    def run():
        studies = {
            name: make_batch_study(design, 5, rng=4)
            for name, design in (
                ("ro-puf", conventional_design(n_ros=32)),
                ("aro-puf", aro_design(n_ros=32)),
            )
        }
        gen = np.random.default_rng(5)
        result = authentication_study(
            studies, years=(0.0, 10.0), batch_size=4, n_challenges=12, rng=gen
        )
        return result, gen.bit_generator.state

    stored = run()
    harvest = authentication_mod.harvest_crps

    def without_pairs(*args, **kwargs):
        return dataclasses.replace(harvest(*args, **kwargs), pairs=None)

    monkeypatch.setattr(authentication_mod, "harvest_crps", without_pairs)
    rebuilt = run()
    assert stored[0] == rebuilt[0]
    assert stored[1] == rebuilt[1]

"""CRP harvesting and tables."""

import numpy as np
import pytest

from repro.core import conventional_design
from repro.protocol import CrpTable, harvest_crps
from repro.protocol.crp import CRP_PAIRING


@pytest.fixture(scope="module")
def instance():
    return conventional_design(n_ros=32).sample_instances(1, rng=0)[0]


class TestHarvest:
    def test_table_shape(self, instance):
        table = harvest_crps(instance, 10, rng=1)
        assert table.n_challenges == 10
        assert table.n_bits == 16
        assert table.chip_id == instance.chip_id

    def test_challenges_unique(self, instance):
        table = harvest_crps(instance, 50, rng=1)
        assert len(set(table.challenges.tolist())) == 50

    def test_seeded_reproducibility(self, instance):
        a = harvest_crps(instance, 5, rng=2)
        b = harvest_crps(instance, 5, rng=2)
        assert np.array_equal(a.challenges, b.challenges)
        assert np.array_equal(a.responses, b.responses)

    def test_noiseless_harvest_deterministic_per_challenge(self, instance):
        table = harvest_crps(instance, 5, rng=3)
        # re-evaluating the same challenge reproduces the stored response
        import dataclasses

        from repro.core import RandomDisjointPairing

        design = dataclasses.replace(
            instance.design, pairing=RandomDisjointPairing()
        )
        inst = design.instantiate(instance.chip)
        for challenge, response in zip(table.challenges, table.responses):
            assert np.array_equal(inst.evaluate(int(challenge)), response)

    def test_different_challenges_different_responses(self, instance):
        table = harvest_crps(instance, 30, rng=4)
        distinct = {tuple(r.tolist()) for r in table.responses}
        assert len(distinct) > 25

    def test_validation(self, instance):
        with pytest.raises(ValueError):
            harvest_crps(instance, 0)


class TestTable:
    def test_lookup(self, instance):
        table = harvest_crps(instance, 5, rng=5)
        c = int(table.challenges[2])
        assert np.array_equal(table.lookup(c), table.responses[2])

    def test_lookup_missing(self, instance):
        table = harvest_crps(instance, 5, rng=5)
        with pytest.raises(KeyError):
            table.lookup(-1)

    def test_split(self, instance):
        table = harvest_crps(instance, 10, rng=6)
        train, test = table.split(7)
        assert train.n_challenges == 7
        assert test.n_challenges == 3
        assert not set(train.challenges.tolist()) & set(test.challenges.tolist())

    def test_split_bounds(self, instance):
        table = harvest_crps(instance, 5, rng=6)
        with pytest.raises(ValueError):
            table.split(5)
        with pytest.raises(ValueError):
            table.split(0)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            CrpTable(
                challenges=np.arange(3),
                responses=np.zeros((2, 4), dtype=np.uint8),
                chip_id=0,
            )


class TestStoredPairs:
    def test_harvest_keeps_the_compact_pair_tables(self, instance):
        table = harvest_crps(instance, 6, rng=3)
        assert table.pairs.dtype == np.int8  # 32 ROs
        rebuilt = CRP_PAIRING.pairs_many(32, table.challenges)
        assert np.array_equal(table.pairs, rebuilt)
        assert np.array_equal(table.challenge_pairs(32, 2, 5), rebuilt[2:5])
        for lo, hi in ((0, 4), (4, 6)):
            part = table.split(4)[lo // 4]
            assert np.array_equal(part.pairs, rebuilt[lo:hi])
        wide = conventional_design(n_ros=256).sample_instances(1, rng=0)[0]
        assert harvest_crps(wide, 2, rng=3).pairs.dtype == np.int16

    def test_a_table_without_pairs_rebuilds_them(self, instance):
        table = harvest_crps(instance, 4, rng=3)
        bare = CrpTable(table.challenges, table.responses, table.chip_id)
        assert bare.pairs is None
        assert np.array_equal(bare.challenge_pairs(32, 1, 3), table.pairs[1:3])

    def test_pairs_must_match_the_table(self, instance):
        table = harvest_crps(instance, 4, rng=3)
        with pytest.raises(ValueError, match="pairs"):
            CrpTable(table.challenges, table.responses, 0, pairs=table.pairs[:3])
        with pytest.raises(ValueError, match="pairs"):
            CrpTable(
                table.challenges, table.responses, 0, pairs=table.pairs.astype(float)
            )

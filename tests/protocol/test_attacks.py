"""Sorting modeling attack."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.core import conventional_design
from repro.protocol import (
    attack_curve,
    build_attack_model,
    harvest_crps,
    sorting_attack,
)


@pytest.fixture(scope="module")
def instance():
    return conventional_design(n_ros=32).sample_instances(1, rng=0)[0]


@pytest.fixture(scope="module")
def table(instance):
    return harvest_crps(instance, 40, rng=1)


class TestModel:
    def test_edges_match_observations(self, instance, table):
        model = build_attack_model(table, 32)
        assert model.n_comparisons > 0
        # every observed edge u -> v must mean f_v > f_u
        freqs = instance.frequencies()
        for u, v in np.argwhere(model.comparisons):
            assert freqs[v] > freqs[u]

    def test_coverage_grows_with_crps(self, table):
        small = build_attack_model(
            type(table)(
                challenges=table.challenges[:2],
                responses=table.responses[:2],
                chip_id=0,
            ),
            32,
        )
        big = build_attack_model(table, 32)
        assert big.known_order_fraction() > small.known_order_fraction()

    def test_derived_predictions_are_correct(self, instance, table):
        """Any bit the transitive closure decides must match silicon."""
        model = build_attack_model(table, 32)
        freqs = instance.frequencies()
        checked = 0
        for a in range(32):
            for b in range(a + 1, 32):
                bit, derived = model.predict_bit(a, b, rng=0)
                if derived:
                    assert bit == int(freqs[a] > freqs[b])
                    checked += 1
        assert checked > 50


class TestAttack:
    def test_accuracy_improves_with_training_data(self, instance, table):
        train_small, test = table.split(4)
        train_big = type(table)(
            challenges=table.challenges[:24],
            responses=table.responses[:24],
            chip_id=0,
        )
        acc_small = sorting_attack(train_small, test, 32, rng=2)
        # test on challenges disjoint from the big training set
        test_big = type(table)(
            challenges=table.challenges[24:],
            responses=table.responses[24:],
            chip_id=0,
        )
        acc_big = sorting_attack(train_big, test_big, 32, rng=2)
        assert acc_big > acc_small

    def test_rich_disclosure_breaks_the_puf(self, instance, table):
        train, test = table.split(32)
        assert sorting_attack(train, test, 32, rng=3) > 0.9

    def test_attack_curve_shape(self, instance):
        rows = attack_curve(instance, train_sizes=(1, 8, 24), n_test=8, rng=4)
        assert [n for n, _, _ in rows] == [1, 8, 24]
        coverages = [cov for _, _, cov in rows]
        assert coverages == sorted(coverages)
        for _, acc, cov in rows:
            assert 0.0 <= acc <= 1.0
            assert 0.0 <= cov <= 1.0


def test_attack_runs_without_networkx():
    """networkx is not a declared dependency: the attack must not need it."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    script = textwrap.dedent(
        """
        import sys
        sys.modules["networkx"] = None  # any import of it now fails
        from repro.core import conventional_design
        from repro.protocol import attack_curve
        inst = conventional_design(n_ros=32).sample_instances(1, rng=0)[0]
        rows = attack_curve(inst, train_sizes=(1, 8), n_test=4, rng=1)
        assert [n for n, _, _ in rows] == [1, 8]
        print("ok")
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@pytest.mark.parametrize("n_train", [1, 2, 8])
def test_one_read_of_all_test_pairs_is_the_pair_by_pair_loop(instance, table, n_train):
    """``build_attack_model`` and ``accuracy`` read every challenge in one
    call, and ``predict_bits`` flips every unknown pair's coin in one
    sized draw.  The reference kept here digests and predicts challenge
    by challenge and pair by pair, one scalar coin flip per unknown
    pair, from one generator: same model, same accuracy, same end state."""
    train, test = table.split(n_train)
    comparisons = np.zeros((32, 32), dtype=bool)
    for pairs, response in zip(train.challenge_pairs(32), train.responses):
        for (a, b), bit in zip(pairs, response):
            comparisons[(a, b) if not bit else (b, a)] = True
    model = build_attack_model(train, 32)
    assert np.array_equal(model.comparisons, comparisons)

    ref_gen = np.random.default_rng(9)
    correct = 0
    for pairs, response in zip(test.challenge_pairs(32), test.responses):
        for (a, b), bit in zip(pairs, response):
            if a == b or model.reachable[b, a]:
                guess = 1
            elif model.reachable[a, b]:
                guess = 0
            else:
                guess = int(ref_gen.integers(0, 2))
            correct += guess == bit
    gen = np.random.default_rng(9)
    assert model.accuracy(test, rng=gen) == correct / test.responses.size
    assert gen.bit_generator.state == ref_gen.bit_generator.state

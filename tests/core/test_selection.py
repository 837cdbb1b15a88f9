"""1-out-of-k enrolment selection."""

import numpy as np
import pytest

from repro.core import StaticPairing, select_stable_pairs, selection_margins


@pytest.fixture
def freqs():
    return 1e9 * (1 + 0.01 * np.random.default_rng(0).standard_normal(64))


class TestSelectStablePairs:
    def test_one_bit_per_group(self, freqs):
        pairing = select_stable_pairs(freqs, k=8)
        assert pairing.n_bits(64) == 8

    def test_pairs_stay_within_their_group(self, freqs):
        pairing = select_stable_pairs(freqs, k=8)
        for g, (a, b) in enumerate(pairing.pair_table):
            assert g * 8 <= a < (g + 1) * 8
            assert g * 8 <= b < (g + 1) * 8
            assert a != b

    def test_widest_gap_wins(self, freqs):
        pairing = select_stable_pairs(freqs, k=8)
        for g, (a, b) in enumerate(pairing.pair_table):
            group = freqs[g * 8 : (g + 1) * 8]
            selected_gap = abs(freqs[a] - freqs[b])
            assert selected_gap == pytest.approx(group.max() - group.min())

    def test_k2_degenerates_to_neighbours(self, freqs):
        pairing = select_stable_pairs(freqs, k=2)
        assert [tuple(sorted(p)) for p in pairing.pair_table] == [
            (2 * i, 2 * i + 1) for i in range(32)
        ]

    def test_margin_grows_with_k(self, freqs):
        margins = [
            selection_margins(freqs, select_stable_pairs(freqs, k)).mean()
            for k in (2, 4, 8, 16)
        ]
        assert margins == sorted(margins)

    def test_leftover_oscillators_unused(self):
        freqs = np.linspace(1.0e9, 1.1e9, 10)
        pairing = select_stable_pairs(freqs, k=4)
        assert pairing.n_bits(10) == 2
        assert max(max(p) for p in pairing.pair_table) < 8

    def test_validation(self, freqs):
        with pytest.raises(ValueError):
            select_stable_pairs(freqs, k=1)
        with pytest.raises(ValueError):
            select_stable_pairs(freqs[:3], k=8)
        with pytest.raises(ValueError):
            select_stable_pairs(freqs.reshape(8, 8), k=2)


class TestStaticPairing:
    def test_acts_as_pairing_scheme(self):
        pairing = StaticPairing(pair_table=((0, 3), (1, 2)))
        pairs = pairing.pairs(4)
        assert pairs.tolist() == [[0, 3], [1, 2]]
        assert pairing.n_bits(4) == 2

    def test_out_of_range_table_rejected(self):
        pairing = StaticPairing(pair_table=((0, 9),))
        with pytest.raises(ValueError, match="references RO"):
            pairing.pairs(4)

    def test_usable_in_a_design(self, freqs):
        """The masked pairing must plug into the ordinary evaluation path."""
        import dataclasses

        from repro.core import conventional_design

        design = conventional_design(n_ros=64)
        inst = design.sample_instances(1, rng=5)[0]
        pairing = select_stable_pairs(inst.frequencies(), k=8)
        masked = dataclasses.replace(design, pairing=pairing)
        bits = masked.instantiate(inst.chip).golden_response()
        assert bits.shape == (8,)

    def test_masked_bits_resist_noise(self):
        """Every masked bit has a wide margin, so a noisy read at the
        enrolment corner reproduces the golden response exactly."""
        import dataclasses

        from repro.core import conventional_design

        design = conventional_design(n_ros=64)
        inst = design.sample_instances(1, rng=6)[0]
        pairing = select_stable_pairs(inst.frequencies(), k=8)
        masked_inst = dataclasses.replace(design, pairing=pairing).instantiate(
            inst.chip
        )
        golden = masked_inst.golden_response()
        for seed in range(10):
            noisy = masked_inst.evaluate(noisy=True, rng=seed)
            assert np.array_equal(noisy, golden)


def _selection_loop(freqs, k):
    """The per-group selection: one argmax over each group's gap matrix."""
    table = []
    for g in range(freqs.size // k):
        group = freqs[g * k : (g + 1) * k]
        diff = np.abs(group[:, None] - group[None, :])
        np.fill_diagonal(diff, -1.0)
        i, j = np.unravel_index(np.argmax(diff), diff.shape)
        table.append((g * k + int(i), g * k + int(j)))
    return tuple(table)


@pytest.mark.parametrize("k", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorised_selection_matches_the_group_loop(k, seed):
    """Ties included: rounding the frequencies to a coarse grid makes
    equal gaps common, and the first maximum in row-major order wins."""
    freqs = np.random.default_rng(seed).normal(1.0e9, 1.0e7, 259)
    for values in (freqs, np.round(freqs, -7)):
        got = select_stable_pairs(values, k).pair_table
        assert got == _selection_loop(values, k)
        assert all(type(v) is int for pair in got for v in pair)

"""Property tests: the array-native E6 search and E11 attack against
scalar, pure-Python references kept here and nowhere else.

The references restate the pre-vectorisation algorithms: one scalar
``binom.sf`` per (repetition, outer code) cell for the key-generator
search, and a depth-first search per pair for the sorting attack.  Every
float is compared by ``float.hex``, so "equal" means bit-identical.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import aro_design, conventional_design
from repro.core.pairing import (
    ChainPairing,
    DistantPairing,
    NeighborPairing,
    RandomDisjointPairing,
)
from repro.analysis.experiments import WIDE_REPETITIONS
from repro.ecc import BchCode, GolayCode, KeyCodec, keygen_area, standard_codes
from repro.ecc.concatenated import ConcatenatedCode
from repro.ecc.repetition import RepetitionCode
from repro.keygen import best_design, search_design_space
from repro.keygen.design import _ros_for_bits
from repro.protocol import CrpTable, build_attack_model, sorting_attack

PALETTE = [
    BchCode.design(5, 1),
    BchCode.design(5, 3),
    BchCode.design(6, 5),
    BchCode.design(7, 9),
    BchCode.design(8, 18),
    GolayCode(),
]
DESIGNS = {"ro-puf": conventional_design(), "aro-puf": aro_design()}
PAIRINGS = {
    "neighbour": NeighborPairing(),
    "chain": ChainPairing(),
    "distant": DistantPairing(),
    "random": RandomDisjointPairing(default_challenge=3),
}
ODD = [1, 3, 5, 7, 9, 11, 15, 21, 33, 65, 101]


def reference_search(
    p, design, key_bits, failure_target, repetitions, palette, max_raw_bits
):
    """The scalar design-space loop: one cell at a time."""
    points = []
    for r in repetitions:
        inner = RepetitionCode(r)
        q = p if r == 1 else float(stats.binom.sf((r - 1) // 2, r, p))
        for outer in palette:
            codec = KeyCodec(ConcatenatedCode(outer=outer, inner=inner), key_bits)
            if codec.raw_bits > max_raw_bits:
                continue
            p_block = float(stats.binom.sf(outer.t, outer.n, q))
            pf = float(1.0 - (1.0 - p_block) ** codec.n_blocks)
            if pf > failure_target:
                continue
            n_ros = _ros_for_bits(design, codec.raw_bits)
            puf_area = design.with_n_ros(n_ros).puf_area()
            ecc_area = keygen_area(codec, design.tech).total
            points.append(
                (codec, pf, codec.raw_bits, n_ros, puf_area, ecc_area)
            )
    points.sort(key=lambda pt: pt[4] + pt[5])
    return points


def signature(codec, pf, raw_bits, n_ros, puf_area, ecc_area):
    return (str(codec), pf.hex(), raw_bits, n_ros, puf_area.hex(), ecc_area.hex())


class TestDesignSearch:
    @given(
        p=st.floats(0.0, 0.5, exclude_max=True),
        design=st.sampled_from(sorted(DESIGNS)),
        key_bits=st.integers(1, 300),
        failure_target=st.floats(1e-12, 0.5),
        repetitions=st.lists(st.sampled_from(ODD), max_size=6, unique=True),
        palette=st.lists(
            st.sampled_from(range(len(PALETTE))), max_size=4, unique=True
        ),
        max_raw_bits=st.integers(1, 200_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reference(
        self, p, design, key_bits, failure_target, repetitions, palette,
        max_raw_bits,
    ):
        codes = [PALETTE[i] for i in palette]
        kwargs = dict(
            key_bits=key_bits,
            failure_target=failure_target,
            repetitions=repetitions,
            bch_palette=codes,
            max_raw_bits=max_raw_bits,
        )
        got = search_design_space(p, DESIGNS[design], **kwargs)
        want = reference_search(
            p, DESIGNS[design], key_bits, failure_target, repetitions, codes,
            max_raw_bits,
        )
        assert [
            signature(
                pt.codec, pt.key_failure, pt.raw_bits, pt.n_ros, pt.puf_area,
                pt.ecc_area,
            )
            for pt in got
        ] == [signature(*pt) for pt in want]
        # the scalar views read the same grid
        for pt in got:
            assert pt.codec.key_failure_probability(p).hex() == pt.key_failure.hex()

    def test_full_e6_width_matches_scalar_reference(self):
        """E6's own search width: the default palette (every standard BCH
        code plus Golay), ``WIDE_REPETITIONS`` and the worst-case policy's
        conventional error rate."""
        args = (
            0.45, DESIGNS["ro-puf"], 128, 1e-6, WIDE_REPETITIONS,
            standard_codes() + [GolayCode()], 5_000_000,
        )
        p, design, key_bits, failure_target, repetitions, palette, max_raw = args
        got = search_design_space(
            p,
            design,
            key_bits=key_bits,
            failure_target=failure_target,
            repetitions=repetitions,
            bch_palette=palette,
            max_raw_bits=max_raw,
        )
        want = reference_search(*args)
        assert want
        assert [
            signature(
                pt.codec, pt.key_failure, pt.raw_bits, pt.n_ros, pt.puf_area,
                pt.ecc_area,
            )
            for pt in got
        ] == [signature(*pt) for pt in want]

    @given(
        p=st.floats(0.0, 0.5, exclude_max=True),
        design=st.sampled_from(sorted(DESIGNS)),
        pairing=st.sampled_from(sorted(PAIRINGS)),
        key_bits=st.integers(1, 300),
        failure_target=st.floats(1e-12, 1.0),
        repetitions=st.lists(st.sampled_from(ODD), max_size=6, unique=True),
        palette=st.lists(
            st.sampled_from(range(len(PALETTE))), max_size=4, unique=True
        ),
        max_raw_bits=st.integers(1, 200_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_best_design_is_the_head_of_the_search(
        self, p, design, pairing, key_bits, failure_target, repetitions,
        palette, max_raw_bits,
    ):
        """``best_design`` builds only the cheapest point of the same
        priced grid: it equals ``search_design_space(...)[0]``, and raises
        exactly when that list is empty."""
        puf = dataclasses.replace(DESIGNS[design], pairing=PAIRINGS[pairing])
        kwargs = dict(
            key_bits=key_bits,
            failure_target=failure_target,
            repetitions=repetitions,
            bch_palette=[PALETTE[i] for i in palette],
            max_raw_bits=max_raw_bits,
        )
        points = search_design_space(p, puf, **kwargs)
        if not points:
            with pytest.raises(ValueError, match="no feasible"):
                best_design(p, puf, **kwargs)
            return
        best = best_design(p, puf, **kwargs)
        assert best == points[0]
        assert best.total_area.hex() == points[0].total_area.hex()
        assert puf.with_n_ros(best.n_ros).n_bits >= best.raw_bits

    @given(
        p=st.floats(0.0, 1.0),
        r=st.sampled_from(ODD),
        outer=st.sampled_from(range(len(PALETTE))),
        key_bits=st.integers(1, 300),
    )
    @settings(max_examples=80, deadline=None)
    def test_scalar_views_match_scalar_formula(self, p, r, outer, key_bits):
        code = ConcatenatedCode(outer=PALETTE[outer], inner=RepetitionCode(r))
        codec = KeyCodec(code, key_bits)
        q = p if r == 1 else float(stats.binom.sf((r - 1) // 2, r, p))
        p_block = float(stats.binom.sf(code.outer.t, code.outer.n, q))
        pf = float(1.0 - (1.0 - p_block) ** codec.n_blocks)
        assert code.inner.decoded_error_probability(p).hex() == float(q).hex()
        assert code.block_failure_probability(p).hex() == p_block.hex()
        assert codec.key_failure_probability(p).hex() == pf.hex()


# ----------------------------------------------------------------------
# sorting attack
# ----------------------------------------------------------------------


def reference_edges(table, n_ros):
    """Adjacency sets: ``v in edges[u]`` means v was seen faster than u."""
    edges = {u: set() for u in range(n_ros)}
    pairing = RandomDisjointPairing()
    for challenge, response in zip(table.challenges, table.responses):
        for (a, b), bit in zip(pairing.pairs(n_ros, int(challenge)), response):
            if bit:
                edges[int(b)].add(int(a))
            else:
                edges[int(a)].add(int(b))
    return edges


def reference_reach(edges):
    """Nodes reachable by a path of length >= 1, by depth-first search."""
    reach = {}
    for start in edges:
        seen = set()
        stack = list(edges[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(edges[node])
        reach[start] = seen
    return reach


def reference_accuracy(reach, test, n_ros, seed):
    pairing = RandomDisjointPairing()
    gen = np.random.default_rng(seed)
    correct = total = 0
    for challenge, response in zip(test.challenges, test.responses):
        for (a, b), bit in zip(pairing.pairs(n_ros, int(challenge)), response):
            a, b = int(a), int(b)
            if a in reach[b]:
                predicted = 1
            elif b in reach[a]:
                predicted = 0
            else:
                predicted = int(gen.integers(0, 2))
            correct += int(predicted == int(bit))
            total += 1
    return correct / total


@st.composite
def crp_tables(draw):
    """A (train, test, n_ros) draw.  Consistent tables come from a hidden
    speed order; noisy ones are arbitrary bits, so they contradict
    themselves and the comparison graph gets cycles."""
    n_ros = draw(st.integers(2, 24))
    n_train = draw(st.integers(1, 8))
    n_test = draw(st.integers(1, 4))
    challenges = draw(
        st.lists(
            st.integers(0, 2**31 - 2),
            min_size=n_train + n_test,
            max_size=n_train + n_test,
            unique=True,
        )
    )
    n_bits = n_ros // 2
    if draw(st.booleans()):
        speed = np.array(draw(st.permutations(range(n_ros))))
        pairing = RandomDisjointPairing()
        responses = np.array(
            [
                (speed[pairs[:, 0]] > speed[pairs[:, 1]]).astype(np.uint8)
                for pairs in (pairing.pairs(n_ros, c) for c in challenges)
            ]
        )
    else:
        responses = np.array(
            draw(
                st.lists(
                    st.lists(st.integers(0, 1), min_size=n_bits, max_size=n_bits),
                    min_size=len(challenges),
                    max_size=len(challenges),
                )
            ),
            dtype=np.uint8,
        )
    table = CrpTable(challenges=challenges, responses=responses, chip_id=0)
    train, test = table.split(n_train)
    return train, test, n_ros


class TestSortingAttack:
    @given(tables=crp_tables(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_dfs_reference(self, tables, seed):
        train, test, n_ros = tables
        model = build_attack_model(train, n_ros)
        edges = reference_edges(train, n_ros)
        reach = reference_reach(edges)

        want = np.zeros((n_ros, n_ros), dtype=bool)
        for u, targets in reach.items():
            want[u, sorted(targets)] = True
        assert np.array_equal(model.reachable, want)
        assert model.n_comparisons == sum(len(v) for v in edges.values())
        decided = sum(len(v) for v in reach.values())
        assert model.known_order_fraction() == decided / (n_ros * (n_ros - 1) // 2)
        assert sorting_attack(train, test, n_ros, rng=seed) == reference_accuracy(
            reach, test, n_ros, seed
        )

"""The fused single-pass kernel: bit-identity in every configuration.

The refactor's contract — one chip-axis-blocked streaming pass replaces
the separate full-tensor compute/compare/bin passes — is only admissible
because it changes **no bytes**.  These tests pin that claim along every
axis the engines expose: block size (including 1, a prime, and the whole
population at once), populations the block size does not divide,
temperature and supply corners, the single-mechanism counterfactuals,
margins and histogram counts, and serial / parallel / out-of-core
evaluation against one another.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import aro_design, compare_pairs, conventional_design
from repro.core.population import make_batch_study
from repro.environment import OperatingConditions, celsius
from repro.metrics.margins import (
    histogram_edges,
    margin_histogram,
    relative_margins,
)

SEED = 1234
N_CHIPS = 13  # prime: no candidate block size divides it
N_ROS = 32

CORNERS = [
    OperatingConditions.nominal(),
    OperatingConditions(temperature_k=celsius(85.0)),
    OperatingConditions(temperature_k=celsius(-20.0), vdd=1.1),
]


@pytest.fixture(scope="module")
def reference():
    """One whole-population-per-block study: the unblocked baseline."""
    design = aro_design(n_ros=N_ROS)
    return design, make_batch_study(
        design, N_CHIPS, rng=SEED, block_size=N_CHIPS
    )


class TestBlockIdentity:
    @pytest.mark.parametrize("block_size", [1, 7, 64, N_CHIPS])
    def test_frequencies_any_block_size(self, reference, block_size):
        design, base = reference
        blocked = make_batch_study(
            design, N_CHIPS, rng=SEED, block_size=block_size
        )
        for cond in CORNERS:
            for t in (0.0, 10.0):
                assert np.array_equal(
                    base.frequencies(t, cond), blocked.frequencies(t, cond)
                )

    @pytest.mark.parametrize("block_size", [1, 7, 64, N_CHIPS])
    def test_responses_any_block_size(self, reference, block_size):
        design, base = reference
        blocked = make_batch_study(
            design, N_CHIPS, rng=SEED, block_size=block_size
        )
        for cond in CORNERS:
            for t in (0.0, 10.0):
                assert np.array_equal(
                    base.responses(t_years=t, conditions=cond),
                    blocked.responses(t_years=t, conditions=cond),
                )

    @pytest.mark.parametrize("block_size", [1, 7])
    def test_histogram_any_block_size(self, reference, block_size):
        design, base = reference
        blocked = make_batch_study(
            design, N_CHIPS, rng=SEED, block_size=block_size
        )
        edges = histogram_edges(0.02, 32)
        for t in (0.0, 10.0):
            assert np.array_equal(
                base.margin_histogram(edges, t_years=t),
                blocked.margin_histogram(edges, t_years=t),
            )

    @pytest.mark.parametrize("mechanism", ["bti", "hci"])
    @pytest.mark.parametrize("block_size", [1, 7, N_CHIPS])
    def test_mechanism_any_block_size(self, reference, block_size, mechanism):
        design, base = reference
        blocked = make_batch_study(
            design, N_CHIPS, rng=SEED, block_size=block_size
        )
        assert np.array_equal(
            base.mechanism_frequencies(10.0, mechanism),
            blocked.mechanism_frequencies(10.0, mechanism),
        )


class TestSinkFusion:
    """Derived quantities from the streaming pass == full-tensor re-read."""

    def test_fused_bits_equal_full_tensor_compare(self):
        design = conventional_design(n_ros=N_ROS)
        batch = make_batch_study(design, N_CHIPS, rng=SEED, block_size=7)
        pairs = design.pairing.pairs(design.n_ros, None)
        for t in (0.0, 10.0):
            bits = batch.responses(t_years=t)  # miss: filled by the sink
            freqs = batch.frequencies(t)  # hit: the sink's own tensor
            assert np.array_equal(
                bits,
                compare_pairs(freqs, pairs, design.tech, design.readout),
            )

    def test_fused_histogram_equals_full_tensor_binning(self):
        design = aro_design(n_ros=N_ROS)
        batch = make_batch_study(design, N_CHIPS, rng=SEED, block_size=7)
        pairs = design.pairing.pairs(design.n_ros, None)
        edges = histogram_edges(0.02, 32)
        counts = batch.margin_histogram(edges, t_years=10.0)  # miss: sink
        freqs = batch.frequencies(10.0)
        assert np.array_equal(
            counts, margin_histogram(relative_margins(freqs, pairs), edges)
        )

    def test_fused_pass_counter(self):
        design = aro_design(n_ros=N_ROS)
        batch = make_batch_study(design, N_CHIPS, rng=SEED)
        with telemetry.session() as tracer:
            batch.responses(t_years=10.0)  # memo miss -> one fused pass
            batch.responses(t_years=10.0)  # memo hit -> no pass at all
        assert tracer.counters.get("batch.fused_passes") == 1

    def test_overdrive_error_from_blocked_pass(self):
        design = aro_design(n_ros=N_ROS)
        batch = make_batch_study(design, N_CHIPS, rng=SEED, block_size=7)
        starved = OperatingConditions(vdd=0.05)
        with pytest.raises(ValueError, match="non-positive gate overdrive"):
            batch.frequencies(0.0, starved)


class TestEngineIdentity:
    """Serial, parallel and out-of-core engines agree bit-for-bit."""

    def test_serial_vs_parallel_vs_store(self):
        design = aro_design(n_ros=N_ROS)
        serial = make_batch_study(design, N_CHIPS, rng=SEED)
        with make_batch_study(
            design, N_CHIPS, rng=SEED, jobs=2
        ) as parallel, make_batch_study(
            design, N_CHIPS, rng=SEED, store="mmap", block_size=5
        ) as store:
            for t in (0.0, 10.0):
                bits = serial.responses(t_years=t)
                assert np.array_equal(bits, parallel.responses(t_years=t))
                assert np.array_equal(bits, store.responses(t_years=t))
                freqs = serial.frequencies(t)
                assert np.array_equal(freqs, np.asarray(store.frequencies(t)))

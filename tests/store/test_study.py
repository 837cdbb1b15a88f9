"""The mmap column source: bit-identity with RAM at any chunking.

Responses, frequencies, mechanism decompositions and margin histograms
from a ``store="mmap"`` study must be byte-identical to the in-RAM
source for every block size and worker count — including block sizes
that do not divide the chip count.
"""

import numpy as np
import pytest

from contextlib import closing

from repro import aro_design
from repro.analysis import ExperimentConfig, aging_bitflips
from repro.core.population import make_batch_study
from repro.environment.conditions import OperatingConditions, celsius
from repro.metrics.margins import histogram_edges
from repro.core.population import BatchStudy
from repro.store import StoreColumns


def mmap_study(*args, **kwargs):
    return make_batch_study(*args, store="mmap", **kwargs)

DESIGN = aro_design(n_ros=16, n_stages=3)
N_CHIPS = 13
SEED = 987


@pytest.fixture(scope="module")
def serial():
    return make_batch_study(DESIGN, N_CHIPS, rng=SEED)


class TestBitIdentity:
    @pytest.mark.parametrize("block_size", [1, 7, 64, N_CHIPS])
    @pytest.mark.parametrize("t", [0.0, 10.0])
    def test_responses_any_block_size(self, serial, block_size, t):
        with mmap_study(
            DESIGN, N_CHIPS, rng=SEED, block_size=block_size
        ) as study:
            assert np.array_equal(
                serial.responses(t_years=t), study.responses(t_years=t)
            )
            assert np.array_equal(
                serial.frequencies(t_years=t), study.frequencies(t_years=t)
            )

    def test_corner_conditions(self, serial):
        cond = OperatingConditions(temperature_k=celsius(85.0), vdd=1.1)
        with mmap_study(DESIGN, N_CHIPS, rng=SEED, block_size=5) as study:
            assert np.array_equal(
                serial.frequencies(5.0, cond), study.frequencies(5.0, cond)
            )

    @pytest.mark.parametrize("mechanism", ["bti", "hci"])
    def test_mechanism_decomposition(self, serial, mechanism):
        with mmap_study(DESIGN, N_CHIPS, rng=SEED, block_size=5) as study:
            assert np.array_equal(
                serial.mechanism_frequencies(10.0, mechanism),
                study.mechanism_frequencies(10.0, mechanism),
            )

    def test_margin_histogram(self, serial):
        edges = histogram_edges()
        with mmap_study(DESIGN, N_CHIPS, rng=SEED, block_size=5) as study:
            assert np.array_equal(
                serial.margin_histogram(edges, t_years=10.0),
                study.margin_histogram(edges, t_years=10.0),
            )

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_parallel_mmap_any_worker_count(self, serial, jobs):
        with closing(
            mmap_study(DESIGN, N_CHIPS, rng=SEED, jobs=jobs, block_size=5)
        ) as par:
            for t in (0.0, 10.0):
                assert np.array_equal(
                    serial.responses(t_years=t), par.responses(t_years=t)
                )

    def test_aging_flips_identical(self, serial):
        """The quantity the paper gates on: fresh-vs-aged bit flips."""
        with mmap_study(DESIGN, N_CHIPS, rng=SEED, block_size=7) as study:
            flips_serial = serial.responses() != serial.responses(t_years=10.0)
            flips_store = study.responses() != study.responses(t_years=10.0)
            assert np.array_equal(flips_serial, flips_store)


class TestLifecycle:
    def test_temp_root_removed_on_close(self):
        study = mmap_study(DESIGN, N_CHIPS, rng=SEED)
        root = study.source.store.root
        assert root.exists()
        study.close()
        assert not root.exists()

    def test_persistent_store_dir_survives_and_readopts(self, tmp_path):
        root = tmp_path / "pop"
        with mmap_study(
            DESIGN, N_CHIPS, rng=SEED, store_dir=root
        ) as study:
            ref = study.responses(t_years=10.0)
        assert root.exists()
        with mmap_study(
            DESIGN, N_CHIPS, rng=SEED, store_dir=root
        ) as again:
            # adopted: fabricated columns are still flagged, same bytes out
            assert again.source.store.materialised_blocks("vth") > 0
            assert np.array_equal(ref, again.responses(t_years=10.0))

    def test_geometry_mismatch_rejected(self, tmp_path):
        from repro import MissionProfile
        from repro.store import PopulationStore

        root = tmp_path / "pop"
        store = PopulationStore.create(root, DESIGN, N_CHIPS, rng=SEED)
        other = aro_design(n_ros=32, n_stages=3)
        with pytest.raises(ValueError, match="ROs"):
            BatchStudy(other, StoreColumns(store), MissionProfile())
        store.close()

    def test_bad_row_window_rejected(self, tmp_path):
        from repro.store import PopulationStore

        store = PopulationStore.create(
            tmp_path / "pop", DESIGN, N_CHIPS, rng=SEED
        )
        with pytest.raises(ValueError, match="row window"):
            StoreColumns(store, row_start=5, row_stop=3)
        store.close()

    def test_drop_cached_corners_forces_recompute(self):
        from repro import telemetry

        with mmap_study(DESIGN, N_CHIPS, rng=SEED, block_size=7) as study:
            study.responses(t_years=10.0)
            with telemetry.session() as counters:
                study.responses(t_years=10.0)  # memo hit, no kernel work
                study.drop_cached_corners()
                study.responses(t_years=10.0)  # recomputed
            assert counters.counters.get("freq.kernel_blocks", 0) > 0
            assert counters.counters.get("batch.corner_memo_hits", 0) >= 1


class TestExperimentRouting:
    def test_e2_scalars_identical_ram_vs_mmap(self):
        """--store mmap must not change a single published number."""
        years = (1.0, 10.0)
        ram = ExperimentConfig(n_chips=6, n_ros=32, seed=7)
        mmap_cfg = ExperimentConfig(n_chips=6, n_ros=32, seed=7, store="mmap")
        serial = aging_bitflips(ram, years=years)
        streamed = aging_bitflips(mmap_cfg, years=years)
        for name, series in serial.series.items():
            assert series.y == streamed.series[name].y

    def test_store_flag_validated(self):
        with pytest.raises(ValueError, match="store"):
            ExperimentConfig(n_chips=4, n_ros=16, store="tape")
        with pytest.raises(ValueError, match="block_size"):
            ExperimentConfig(n_chips=4, n_ros=16, store="mmap", block_size=0)

"""A store survives a SIGKILL mid-fabrication (bitmap-after-flush contract).

A child process fabricates a persistent store in small blocks and kills
itself with SIGKILL inside ``_publish`` — after a block's rows were
written, before their flags go up — leaving those rows torn (NaN).  The
parent attaches to what is left: exactly the blocks published before the
crash are flagged, and ``ensure_rows`` over the whole population
re-fabricates the rest, so every column ends byte-equal to a fresh store.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro import aro_design
from repro.store import AGING_COLUMNS, COLUMNS, FAB_COLUMNS, PopulationStore

DESIGN = aro_design(n_ros=16, n_stages=3)
N_CHIPS = 13
BLOCK_SIZE = 3  # 5 blocks, the last one short
SEED = 987

CHILD = textwrap.dedent(
    """
    import os, signal, sys
    import numpy as np
    from repro import aro_design
    from repro.store import COLUMNS, PopulationStore

    root, kill_at = sys.argv[1], int(sys.argv[2])
    publish = PopulationStore._publish
    calls = 0

    def crashing_publish(self, cols, lo, hi):
        global calls
        calls += 1
        if calls == kill_at:
            for mm in cols.values():
                mm[lo:hi] = np.nan  # the rows as a torn write leaves them
            os.kill(os.getpid(), signal.SIGKILL)
        publish(self, cols, lo, hi)

    PopulationStore._publish = crashing_publish
    store = PopulationStore.create(
        root, aro_design(n_ros=16, n_stages=3), 13, rng=987, block_size=3
    )
    store.ensure_rows(0, 13, COLUMNS)
    """
)


def _flags(root, name):
    return np.load(root / f"{name}.flags.npy").tolist()


# ensure_rows publishes each block's process columns, then its aging
# columns: call 2b + 1 and 2b + 2 for block b
@pytest.mark.parametrize("kill_at", [3, 4, 9])
def test_sigkill_mid_fabrication_then_reopen(tmp_path, kill_at):
    root = tmp_path / "store"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(root), str(kill_at)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr

    n_blocks = -(-N_CHIPS // BLOCK_SIZE)
    fab_done = kill_at // 2  # blocks whose process columns were published
    aging_done = (kill_at - 1) // 2
    with PopulationStore.attach(root, DESIGN) as store:
        for name in FAB_COLUMNS:
            assert _flags(root, name) == [1] * fab_done + [0] * (n_blocks - fab_done)
        for name in AGING_COLUMNS:
            assert _flags(root, name) == [1] * aging_done + [0] * (
                n_blocks - aging_done
            )
        torn = slice(BLOCK_SIZE * ((kill_at - 1) // 2), None)
        torn_column = FAB_COLUMNS[0] if kill_at % 2 else AGING_COLUMNS[0]
        assert np.isnan(store.column(torn_column)[torn][0]).all()

        store.ensure_rows(0, N_CHIPS, COLUMNS)
        for name in COLUMNS:
            assert _flags(root, name) == [1] * n_blocks
        with PopulationStore.create(
            tmp_path / "fresh", DESIGN, N_CHIPS, rng=SEED, block_size=BLOCK_SIZE
        ) as fresh:
            fresh.ensure_rows(0, N_CHIPS, COLUMNS)
            for name in COLUMNS:
                assert (
                    np.asarray(store.column(name)).tobytes()
                    == np.asarray(fresh.column(name)).tobytes()
                ), name

"""Import-time parsing and the per-layer totals."""

import json

import pytest

import layers

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:        50 |         50 |       scipy._lib
import time:        30 |         30 |         scipy.linalg._x
import time:        70 |        100 |       scipy.linalg
import time:       200 |        350 |     scipy
import time:        40 |        390 |   repro.metrics
import time:        10 |         10 |   scipy.special
Traceback (most recent call last):
"""


def test_parse_importtime_resolves_nesting():
    figures, rest = layers.parse_importtime(IMPORTTIME)
    assert figures["modules"] == 7
    assert figures["total_us"] == 100 + 390 + 10
    # scipy nested under repro counts once; scipy.special at the top too
    assert figures["scipy_us"] == 350 + 10
    assert figures["repro_us"] == 390
    assert rest == "Traceback (most recent call last):"


def write_process(directory, root_ns, entries, layer_self_ns, counts):
    directory.mkdir()
    payload = {
        "root_ns": root_ns,
        "entries": entries,
        "layer_self_ns": layer_self_ns,
        "counts": counts,
        "missing": [],
        "by_rid": {},
    }
    (directory / "layers-1.json").write_text(json.dumps(payload))
    (directory / "trace-1.json").write_text(json.dumps({"traceEvents": []}))


def entry(layer, calls, busy_ns, self_ns, errors=0):
    return {"layer": layer, "calls": calls, "busy_ns": busy_ns, "self_ns": self_ns, "errors": errors}


def test_layer_self_times_and_unattributed_add_up_to_wall(tmp_path):
    totals = layers.LayerTotals()
    for k in range(2):
        write_process(
            tmp_path / f"p{k}",
            root_ns=900_000_000,
            entries={
                "import.repro_cli": entry("import", 1, 600_000_000, 600_000_000),
                "cli.main": entry("cli", 1, 300_000_000, 100_000_000),
                "kernel.frequency_block_kernel": entry("kernel", 4, 200_000_000, 200_000_000),
            },
            layer_self_ns={"import": 600_000_000, "cli": 100_000_000, "kernel": 200_000_000},
            counts={"kernel.bytes_computed": 400_000_000, "core.freq_memo_hits": 1, "core.freq_memo_misses": 3},
        )
        totals.add_process(str(tmp_path / f"p{k}"), 1.0, "")
    values = totals.metrics()
    layers.check_catalog(values)
    parts = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert parts + values["process.unattributed_s"] == pytest.approx(values["process.wall_s"])
    assert values["process.unattributed_s"] == pytest.approx(0.1)
    assert values["kernel.calls"] == 4
    assert values["kernel.gbps_computed"] == pytest.approx(2.0)
    assert values["core.freq_memo_hit_ratio"] == 0.25
    assert values["store.rows_per_s"] == 0.0


def test_check_catalog_rejects_strays():
    values = {name: 0.0 for name in layers.CATALOG}
    layers.check_catalog(values)
    with pytest.raises(ValueError):
        layers.check_catalog({**values, "stray.metric": 1.0})

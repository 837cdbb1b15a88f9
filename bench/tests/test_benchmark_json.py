"""``BENCHMARK.json`` is well formed and agrees with the benchmark code."""

import json
import os
import re

import pytest

import layers
import proc
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    path = os.path.join(proc.ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path) as fh:
        return json.load(fh)


def test_top_level_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert os.path.isdir(os.path.join(proc.ROOT, path))
    for arg in spec["command"][1:]:
        if os.path.exists(os.path.join(proc.ROOT, arg)):
            assert any(arg == p or arg.startswith(p.rstrip("/") + "/") for p in spec["paths"])


def test_names_are_well_formed_and_unique(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


def test_workloads_state_why_they_are_there(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"].strip() and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_and_bounds(spec):
    metrics = spec["end_to_end"]
    assert 1 <= len(metrics) <= 16
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in metrics if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(m["bound"] for m in metrics)


def test_every_per_layer_metric_names_what_it_moves_and_where(spec):
    per_layer = spec["per_layer"]
    assert 1 <= len(per_layer) <= 128
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    assert [m["name"] for m in per_layer] == list(layers.CATALOG)
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
        unit, better, moves, where = layers.CATALOG[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert moves in end_to_end or moves == layers.WALL
        assert where and set(where) <= names

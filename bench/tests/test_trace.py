"""The tracer's time accounting, wrapping and output formats."""

import asyncio
import json
import types

import pytest

import benchtrace
from benchtrace import Target, Tracer, patch_module, wrap


class FakeClock:
    def __init__(self):
        self.now = 1_000

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


def traced(tracer, fn, entry, **kw):
    return wrap(tracer, fn, Target("m", fn.__name__, entry, **kw))


def test_self_time_over_nested_and_sibling_spans(tracer, clock):
    def leaf():
        clock.advance(5)

    leaf_w = traced(tracer, leaf, "b.leaf")

    def middle():
        clock.advance(2)
        leaf_w()
        clock.advance(1)

    middle_w = traced(tracer, middle, "c.middle")

    def outer():
        clock.advance(1)
        leaf_w()
        clock.advance(2)
        middle_w()
        clock.advance(3)

    traced(tracer, outer, "a.outer")()

    entries = tracer.entries
    assert entries["a.outer"].busy_ns == 1 + 5 + 2 + 8 + 3
    assert entries["a.outer"].self_ns == 1 + 2 + 3
    assert entries["c.middle"].self_ns == 3
    assert entries["b.leaf"].calls == 2
    assert entries["b.leaf"].self_ns == entries["b.leaf"].busy_ns == 10
    # self times partition the root's duration
    assert sum(tracer.layer_self_ns.values()) == tracer.root_ns == 19
    names = [span[0] for span in tracer.spans]
    parents = {span[0] + str(i): span[3] for i, span in enumerate(tracer.spans)}
    assert names == ["a.outer", "b.leaf", "c.middle", "b.leaf"]
    assert parents == {"a.outer0": -1, "b.leaf1": 0, "c.middle2": 0, "b.leaf3": 2}


def test_siblings_at_the_root_each_count_once(tracer, clock):
    def step():
        clock.advance(4)

    step_w = traced(tracer, step, "a.step")
    step_w()
    clock.advance(100)  # untraced gap between roots
    step_w()
    assert tracer.root_ns == 8
    assert tracer.entries["a.step"].busy_ns == 8


def test_recursion_counts_busy_time_once(tracer, clock):
    def recurse(depth):
        clock.advance(1)
        if depth:
            recurse_w(depth - 1)

    recurse_w = traced(tracer, recurse, "a.recurse")
    recurse_w(2)
    stats = tracer.entries["a.recurse"]
    assert stats.calls == 3
    assert stats.busy_ns == 3
    assert stats.self_ns == 3


def test_total_mode_children_leave_no_span_but_still_count(tracer, clock):
    def hot():
        clock.advance(2)

    hot_w = traced(tracer, hot, "ecc.hot", mode="total")

    def parent():
        for _ in range(3):
            hot_w()
        clock.advance(1)

    traced(tracer, parent, "keygen.parent")()
    assert tracer.entries["keygen.parent"].self_ns == 1
    assert tracer.entries["ecc.hot"].calls == 3
    assert [span[0] for span in tracer.spans] == ["keygen.parent"]


def test_span_cap_keeps_totals(clock):
    tracer = Tracer(clock=clock, span_cap=2)

    def tick():
        clock.advance(1)

    tick_w = traced(tracer, tick, "a.tick")
    for _ in range(5):
        tick_w()
    assert len(tracer.spans) == 2
    assert tracer.entries["a.tick"].calls == 5
    assert tracer.root_ns == 5


def test_errors_are_counted_and_reraised(tracer, clock):
    def boom():
        clock.advance(1)
        raise KeyError("x")

    boom_w = traced(tracer, boom, "keygen.reproduce", mode="total")
    with pytest.raises(KeyError):
        boom_w()
    assert tracer.entries["keygen.reproduce"].errors == 1


def test_async_entries_nest_and_carry_the_request_id(tracer, clock):
    def work():
        clock.advance(3)

    work_w = traced(tracer, work, "keygen.enroll", mode="total")

    async def dispatch(request):
        clock.advance(1)
        work_w()
        return {"outcome": "ok"}

    def count_outcome(t, args, kwargs, result, frame):
        t.count(f"service.outcome.{result['outcome']}")

    dispatch_w = wrap(
        tracer,
        dispatch,
        Target("m", "dispatch", "service.dispatch", durations=True,
               rid=lambda args, kwargs: args[0]["bench_id"], after=count_outcome),
    )
    reply = asyncio.run(dispatch_w({"bench_id": "r2000-7"}))
    assert reply == {"outcome": "ok"}
    assert tracer.by_rid == {"r2000-7": 4}
    assert tracer.entries["service.dispatch"].durations == [4]
    assert tracer.entries["service.dispatch"].self_ns == 1
    assert tracer.counts == {"service.outcome.ok": 1}
    assert tracer.spans[0][4] == "r2000-7"


def test_patch_module_wraps_functions_and_methods_and_reports_missing(tracer):
    module = types.ModuleType("fake")

    def top(x):
        return x + 1

    class Model:
        def sample(self, n):
            return n * 2

    module.top, module.Model = top, Model
    patch_module(
        tracer,
        module,
        [
            Target("fake", "top", "a.top"),
            Target("fake", "Model.sample", "b.sample"),
            Target("fake", "Model.absent", "b.absent"),
        ],
    )
    assert module.top(1) == 2
    assert Model().sample(3) == 6
    assert tracer.entries["a.top"].calls == 1
    assert tracer.entries["b.sample"].calls == 1
    assert tracer.missing == ["fake:Model.absent"]


def test_every_target_names_an_entry_in_its_own_layer():
    layers = {"import", "cli", "analysis", "variation", "aging", "core", "kernel", "store",
              "metrics", "ecc", "keygen", "protocol", "forensics", "service"}
    for target in benchtrace.TARGETS:
        assert benchtrace.layer_of(target.entry) in layers
        assert target.mode in ("span", "total", "count")


def test_writes_layers_and_a_chrome_trace(tracer, clock, tmp_path):
    def step():
        clock.advance(2_000)

    traced(tracer, step, "a.step")()
    tracer.write(str(tmp_path))
    (layers_file,) = tmp_path.glob("layers-*.json")
    (trace_file,) = tmp_path.glob("trace-*.json")
    payload = json.loads(layers_file.read_text())
    assert payload["entries"]["a.step"]["busy_ns"] == 2_000
    events = json.loads(trace_file.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert complete == [
        {"name": "a.step", "cat": "a", "ph": "X", "ts": 1.0, "dur": 2.0,
         "pid": payload["pid"], "tid": 1, "args": {"span": 0, "parent": -1}}
    ]
    assert any(e["ph"] == "M" and e["name"] == "process_name" for e in events)

"""The telemetry hook budget: what every instrumented call site costs.

Each row of ``BUDGETS`` names a mode (what is installed), a workload and
a ceiling on the share of the workload's time the hooks may take.  For
each row the harness measures two things that repeat from run to run:

* **calls** — the workload runs once in the mode with counting wrappers
  in the ``repro.telemetry`` module slots (the hooks sites call as
  ``telemetry.<hook>``), on the ``Tracer`` methods a site calls directly
  (``tr.observe`` after ``telemetry.active()``), and on
  ``FleetService._serve``, whose preamble reads the tracer slot itself
  (one read per request);
* **per-call cost** — each hook the workload called is timed in the mode
  in a tight loop of ``N_CALLS`` calls, minus the same loop calling an
  empty function (best of ``ROUNDS`` each).

The share is the sum of calls × per-call cost over the workload's
best-of-N wall time with nothing installed.  A progress emitter adds
each line it wrote at the cost of a written line, and a 20 Hz resource
sampler adds its per-tick cost × 20 ticks per second.  An A/B of two
wall-clock runs cannot resolve these shares: on a shared 2-vCPU host it
spreads by tens of percent between repeats, where the hooks cost tenths
of a percent.

The rows together write one artefact, ``hook_budget``.

Run with::

    pytest benchmarks/bench_hooks.py
"""

import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from _common import best_of, emit
from bench_population import N_CHIPS, SEED, _sweep_batched
from bench_service import N_AUTHS, _auth_round, _enrolled_service
from repro import telemetry
from repro.analysis import DEFAULT_YEARS
from repro.core import aro_design, make_batch_study
from repro.service import FleetService
from repro.telemetry import tracer as _tracer_mod

#: the module-level hooks sites call, and the Tracer methods a site could
#: call directly on the tracer ``telemetry.active()`` returned
HOOKS = ("active", "count", "enabled", "end_span", "gauge", "observe",
         "progress", "span", "start_span")
TRACER_METHODS = ("count", "end_span", "gauge", "observe", "request",
                  "span", "start_span")

N_CALLS = 20_000
ROUNDS = 7
SAMPLER_HZ = 20.0
#: progress lines are timed as real writes, so the emitter has no cap
EMITTER_MAX_EVENTS = 10**9


def _timed_span():
    with telemetry.span("hook.budget", n_chips=N_CHIPS):
        pass


def _direct_observe(tracer):
    # the per-block site: two clock reads around the block, then observe
    def observe():
        t0 = time.perf_counter_ns()
        tracer.observe("hook.budget", (time.perf_counter_ns() - t0) / 1e9)

    return observe


def _sampler_tick(_handle):
    sampler = telemetry.ResourceSampler(SAMPLER_HZ, echo_interval_s=None)
    return lambda: sampler.sample_once()


#: one call of each site, given what the mode installed.  ``start_span``
#: is timed with the ``end_span`` that closes it, so ``end_span`` carries
#: no cost of its own.
PROBES = {
    "active": lambda h: lambda: telemetry.active(),
    "enabled": lambda h: lambda: telemetry.enabled(),
    "count": lambda h: lambda: telemetry.count("hook.budget", 1),
    "gauge": lambda h: lambda: telemetry.gauge("hook.budget", 1.0),
    "observe": lambda h: lambda: telemetry.observe("hook.budget", 1e-3),
    "progress": lambda h: lambda: telemetry.progress("hook.budget", 1, 2),
    "span": lambda h: _timed_span,
    "start_span": lambda h: lambda: telemetry.end_span(
        telemetry.start_span("hook.budget", t_years=1.0, n_chips=N_CHIPS)
    ),
    "end_span": lambda h: _empty,
    "Tracer.observe": _direct_observe,
    "FleetService._serve": lambda h: lambda: _tracer_mod._active is not None,
    "event line": lambda h: lambda: h.emit("hook.budget", 1, 2, force=True),
    "sampler tick": _sampler_tick,
}

#: (mode, workload, ceiling) — the budgets the hooks were built to
BUDGETS = [
    pytest.param("disabled", "e2-sweep", 0.02, id="disabled-e2-sweep"),
    pytest.param("disabled", "auth-driver", 0.02, id="disabled-auth-driver"),
    pytest.param("emitter", "e2-sweep", 0.02, id="emitter-e2-sweep"),
    pytest.param("tracer", "e2-sweep", 0.25, id="tracer-e2-sweep"),
    pytest.param("sampler", "e2-sweep-1k", 0.10, id="sampler-e2-sweep-1k"),
]

MODES = {
    "disabled": "hooks disabled",
    "emitter": "progress emitter installed",
    "tracer": "tracer installed",
    "sampler": f"tracer + {SAMPLER_HZ:.0f} Hz resource sampler",
}


def _e2_sweep(n_chips):
    batch = make_batch_study(aro_design(), n_chips=n_chips, rng=SEED)
    years = list(DEFAULT_YEARS)
    return lambda: _sweep_batched(batch, years)


def _auth_driver():
    service, bits = _enrolled_service()
    return _auth_round(service, bits)


#: name -> (builder, best-of rounds, description)
WORKLOADS = {
    "e2-sweep": (lambda: _e2_sweep(N_CHIPS), 15,
                 f"E2 sweep, {N_CHIPS} x 256"),
    "e2-sweep-1k": (lambda: _e2_sweep(1_000), 7, "E2 sweep, 1,000 x 256"),
    "auth-driver": (_auth_driver, 7, f"{N_AUTHS:,}-auth service driver"),
}


def _empty():
    pass


@contextmanager
def _installed(mode, tmp_path):
    """Install what ``mode`` runs with; yields the emitter or tracer."""
    if mode == "emitter":
        with telemetry.emitter_session(
            tmp_path / "events.jsonl", max_events=EMITTER_MAX_EVENTS
        ) as emitter:
            yield emitter
    elif mode in ("tracer", "sampler"):
        with telemetry.session() as tracer:
            yield tracer
    else:
        yield None


def _counted(calls, site, fn):
    def hook(*args, **kwargs):
        calls[site] += 1
        return fn(*args, **kwargs)

    return hook


def _counted_method(calls, site, fn):
    # a call from inside repro.telemetry is a module hook's own work,
    # already charged to that hook
    def method(self, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if not caller.startswith("repro.telemetry"):
            calls[site] += 1
        return fn(self, *args, **kwargs)

    return method


@contextmanager
def _counting():
    """Count every hook call a site makes while the block runs."""
    calls = Counter()
    serve = FleetService._serve

    async def counted_serve(self, *args, **kwargs):
        calls["FleetService._serve"] += 1
        return await serve(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for name in HOOKS:
            mp.setattr(telemetry, name, _counted(calls, name, getattr(telemetry, name)))
        for name in TRACER_METHODS:
            fn = getattr(telemetry.Tracer, name)
            mp.setattr(telemetry.Tracer, name,
                       _counted_method(calls, f"Tracer.{name}", fn))
        mp.setattr(FleetService, "_serve", counted_serve)
        yield calls


def _loop(fn):
    t0 = time.perf_counter()
    for _ in range(N_CALLS):
        fn()
    return time.perf_counter() - t0


def per_call_s(site, mode, tmp_path):
    """Seconds one call of ``site`` costs in ``mode``, empty loop removed."""
    build = PROBES[site]
    t_probe = t_empty = math.inf
    for _ in range(ROUNDS):
        with _installed(mode, tmp_path) as handle:
            probe = build(handle)
            t_probe = min(t_probe, _loop(probe))
            t_empty = min(t_empty, _loop(_empty))
    return max(t_probe - t_empty, 0.0) / N_CALLS


@pytest.fixture(scope="module")
def workload():
    """``name -> (run, best-of-N seconds with nothing installed)``."""
    cache = {}

    def get(name):
        if name not in cache:
            build, rounds, _ = WORKLOADS[name]
            run = build()
            cache[name] = (run, best_of(run, rounds=rounds))
        return cache[name]

    return get


@pytest.fixture(scope="module")
def artefact():
    """Collects each row's table and share; writes ``hook_budget`` once."""
    rows = {}
    yield rows
    if rows:
        emit(
            "hook_budget",
            "\n\n".join(text for text, _ in rows.values()),
            values={f"{row}.overhead": share for row, (_, share) in rows.items()},
        )


@pytest.mark.slow
@pytest.mark.parametrize("mode, name, ceiling", BUDGETS)
def test_hook_share_under_ceiling(mode, name, ceiling, workload, artefact, tmp_path):
    run, workload_s = workload(name)
    with _installed(mode, tmp_path) as handle, _counting() as calls:
        run()
    if mode == "emitter":
        calls["event line"] = handle.n_events
    if mode == "sampler":
        calls["sampler tick"] = SAMPLER_HZ * workload_s
    assert sum(calls.values()) > 0, "the workload reached no hook"
    assert set(calls) <= set(PROBES), f"no probe for {set(calls) - set(PROBES)}"
    costs = {site: per_call_s(site, mode, tmp_path) for site in sorted(calls)}
    share = sum(calls[s] * costs[s] for s in calls) / workload_s
    lines = [
        f"hook budget: {MODES[mode]}, {WORKLOADS[name][2]} "
        f"({workload_s * 1e3:.2f} ms best)",
        f"  {'site':<22}{'calls':>9}{'ns/call':>10}{'share':>10}",
    ]
    for site in sorted(calls):
        lines.append(
            f"  {site:<22}{calls[site]:>9.0f}{costs[site] * 1e9:>10.1f}"
            f"{100.0 * calls[site] * costs[site] / workload_s:>9.3f}%"
        )
    lines.append(
        f"  {'total':<22}{sum(calls.values()):>9.0f}{'':>10}"
        f"{100.0 * share:>9.3f}%  (ceiling {ceiling:.0%})"
    )
    artefact[f"{mode}.{name}"] = ("\n".join(lines), share)
    print("\n" + "\n".join(lines))
    assert share < ceiling, (
        f"{MODES[mode]}: hooks take {share:.2%} of the {WORKLOADS[name][2]}; "
        f"ceiling is {ceiling:.0%}"
    )

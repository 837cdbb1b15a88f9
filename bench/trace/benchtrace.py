"""The benchmark's in-memory tracer and the import hook that installs it.

``sitecustomize.py`` in this directory calls :func:`install` when the
``BENCH_TRACE_DIR`` environment variable names a directory.  The hook
then wraps the public entry points listed in :data:`TARGETS` as their
modules finish executing, so every later ``from module import name``
binds the wrapper.  Each wrapped call opens a frame; frames nest through
a :class:`contextvars.ContextVar`, so threads and asyncio tasks keep
their own stacks.  A frame's self time is its duration minus the time
its wrapped children took, which is exact for code that runs its
children one at a time, as every traced layer here does.

Spans (name, start, end, parent, request id) and counts stay in memory.
At interpreter exit the hook writes ``layers-<pid>.json`` (per-entry
calls, busy, self and error totals, counts, per-layer self time) and
``trace-<pid>.json`` (Chrome trace-event JSON that Perfetto loads) into
the directory.

Nothing here imports the program: it must stay cheap to import in
every process that has this directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import importlib.abc
import inspect
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional

#: spans kept per entry; later calls still count, but only in the totals
SPAN_CAP = 20_000


class Frame:
    """One open wrapped call."""

    __slots__ = ("entry", "layer", "start", "child_ns", "parent", "span", "rid")

    def __init__(self, entry, layer, start, parent, rid):
        self.entry = entry
        self.layer = layer
        self.start = start
        self.child_ns = 0
        self.parent = parent
        self.span = None
        self.rid = rid


class EntryStats:
    __slots__ = ("layer", "calls", "busy_ns", "self_ns", "errors", "spans", "durations")

    def __init__(self, layer: str, keep_durations: bool):
        self.layer = layer
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.errors = 0
        self.spans = 0
        self.durations: Optional[List[int]] = [] if keep_durations else None

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "layer": self.layer,
            "calls": self.calls,
            "busy_ns": self.busy_ns,
            "self_ns": self.self_ns,
            "errors": self.errors,
        }
        if self.durations is not None:
            out["durations_ns"] = self.durations
        return out


def layer_of(entry: str) -> str:
    return entry.split(".", 1)[0]


class Tracer:
    """Frames, spans and counts for one process."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        span_cap: int = SPAN_CAP,
    ):
        self._clock = clock
        self._span_cap = span_cap
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "benchtrace_frame", default=None
        )
        self._lock = threading.Lock()
        self.entries: Dict[str, EntryStats] = {}
        self.layer_self_ns: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: (entry, start_ns, end_ns, parent span index or -1, rid, thread id)
        self.spans: List[Optional[tuple]] = []
        self.root_ns = 0
        #: request id -> duration of the entry that carried it
        self.by_rid: Dict[str, int] = {}
        self.missing: List[str] = []

    def stats(self, entry: str, keep_durations: bool = False) -> EntryStats:
        st = self.entries.get(entry)
        if st is None:
            st = self.entries[entry] = EntryStats(layer_of(entry), keep_durations)
        return st

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def begin(self, entry: str, rid: Optional[str] = None, record: bool = True):
        parent = self._current.get()
        if rid is None and parent is not None:
            rid = parent.rid
        frame = Frame(entry, layer_of(entry), 0, parent, rid)
        if record:
            with self._lock:
                st = self.stats(entry)
                if st.spans < self._span_cap:
                    st.spans += 1
                    frame.span = len(self.spans)
                    self.spans.append(None)
        token = self._current.set(frame)
        frame.start = self._clock()
        return frame, token

    def end(self, frame: Frame, token, error: bool = False) -> int:
        end = self._clock()
        self._current.reset(token)
        duration = end - frame.start
        self_ns = duration - frame.child_ns
        outermost = True
        ancestor = frame.parent
        while ancestor is not None:
            if ancestor.entry == frame.entry:
                outermost = False
                break
            ancestor = ancestor.parent
        with self._lock:
            st = self.stats(frame.entry)
            st.calls += 1
            st.self_ns += self_ns
            if outermost:
                st.busy_ns += duration
            if error:
                st.errors += 1
            if st.durations is not None:
                st.durations.append(duration)
            self.layer_self_ns[frame.layer] = (
                self.layer_self_ns.get(frame.layer, 0) + self_ns
            )
            if frame.parent is None:
                self.root_ns += duration
            else:
                frame.parent.child_ns += duration
            if frame.span is not None:
                parent = frame.parent
                while parent is not None and parent.span is None:
                    parent = parent.parent
                self.spans[frame.span] = (
                    frame.entry,
                    frame.start,
                    end,
                    -1 if parent is None else parent.span,
                    frame.rid,
                    threading.get_ident(),
                )
        return duration

    # ---- output ----------------------------------------------------------

    def layers_payload(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "root_ns": self.root_ns,
            "entries": {k: v.to_dict() for k, v in sorted(self.entries.items())},
            "layer_self_ns": dict(sorted(self.layer_self_ns.items())),
            "counts": dict(sorted(self.counts.items())),
            "by_rid": self.by_rid,
            "missing": self.missing,
        }

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Complete ("X") events in microseconds, one lane per thread."""
        pid = os.getpid()
        lanes: Dict[int, int] = {}
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": " ".join(sys.argv[1:4]) or "python"},
            }
        ]
        for index, span in enumerate(self.spans):
            if span is None:  # still open at exit
                continue
            entry, start, end, parent, rid, thread = span
            args: Dict[str, Any] = {"span": index, "parent": parent}
            if rid is not None:
                args["rid"] = rid
            events.append(
                {
                    "name": entry,
                    "cat": layer_of(entry),
                    "ph": "X",
                    "ts": start / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": pid,
                    "tid": lanes.setdefault(thread, len(lanes) + 1),
                    "args": args,
                }
            )
        return events

    def write(self, directory: str) -> None:
        pid = os.getpid()
        with open(os.path.join(directory, f"layers-{pid}.json"), "w") as fh:
            json.dump(self.layers_payload(), fh)
        with open(os.path.join(directory, f"trace-{pid}.json"), "w") as fh:
            json.dump({"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}, fh)


# ---- wrapping ----------------------------------------------------------------


class Target(NamedTuple):
    """One entry point to wrap.

    ``mode`` is ``span`` (frame and span), ``total`` (frame only, for
    entries called too often to keep every span) or ``count`` (no
    frame: the callbacks alone run).  ``before(tracer, args, kwargs)``
    and ``after(tracer, args, kwargs, result, frame)`` add counts.
    """

    module: str
    qualname: str
    entry: str
    mode: str = "span"
    durations: bool = False
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    rid: Optional[Callable] = None


def wrap(tracer: Tracer, fn: Callable, target: Target) -> Callable:
    """``fn`` wrapped so every call is traced as ``target.entry``."""
    if target.durations:
        tracer.stats(target.entry, keep_durations=True)
    before, after, rid_of = target.before, target.after, target.rid

    if target.mode == "count":

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result, None)
            return result

        return counted

    record = target.mode == "span"
    entry = target.entry

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            rid = rid_of(args, kwargs) if rid_of is not None else None
            frame, token = tracer.begin(entry, rid, record)
            failed = True
            try:
                result = await fn(*args, **kwargs)
                failed = False
            finally:
                duration = tracer.end(frame, token, failed)
                if rid is not None and rid_of is not None:
                    tracer.by_rid[rid] = duration
            if after is not None:
                after(tracer, args, kwargs, result, frame)
            return result

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        rid = rid_of(args, kwargs) if rid_of is not None else None
        frame, token = tracer.begin(entry, rid, record)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            duration = tracer.end(frame, token, failed)
            if rid is not None and rid_of is not None:
                tracer.by_rid[rid] = duration
        if after is not None:
            after(tracer, args, kwargs, result, frame)
        return result

    return traced


def patch_module(tracer: Tracer, module, targets) -> None:
    """Replace each target's attribute on ``module`` with its wrapper."""
    for target in targets:
        owner = module
        *path, name = target.qualname.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            fn = inspect.getattr_static(owner, name)
        except AttributeError:
            tracer.missing.append(f"{target.module}:{target.qualname}")
            continue
        if not inspect.isfunction(fn):
            tracer.missing.append(f"{target.module}:{target.qualname}")
            continue
        setattr(owner, name, wrap(tracer, fn, target))


class _PatchingLoader(importlib.abc.Loader):
    """Delegates to the real loader, then patches the fresh module."""

    def __init__(self, inner, tracer: Tracer, targets):
        self._inner = inner
        self._tracer = tracer
        self._targets = targets

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module):
        self._inner.exec_module(module)
        patch_module(self._tracer, module, self._targets)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer, by_module: Dict[str, list]):
        self._tracer = tracer
        self._by_module = by_module

    def find_spec(self, name, path, target=None):
        targets = self._by_module.get(name)
        if targets is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader, self._tracer, targets)
        return spec


# ---- the entry points traced -----------------------------------------------


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_chips(tracer, args, kwargs):
    # VariationModel.sample_population(self, n_chips, rng=None)
    tracer.count("variation.chips", _arg(args, kwargs, 1, "n_chips", 0))


def _count_kernel_bytes(tracer, args, kwargs):
    # compulsory traffic of one block: thresholds and tc rows in, periods out
    total = _arg(args, kwargs, 2, "vth_rows").nbytes + kwargs["period_out"].nbytes
    tc_rows = kwargs.get("tc_rows")
    if tc_rows is not None:
        total += tc_rows.nbytes
    tracer.count("kernel.bytes_computed", total)


def _count_memo(tracer, args, kwargs, result, frame):
    tracer.count("core.freq_memo_hits" if result is not None else "core.freq_memo_misses")


def _count_fabricated_rows(tracer, args, kwargs):
    # PopulationStore._fabricate_process(self, lo, hi, columns)
    tracer.count("store.rows_materialised", args[2] - args[1])


def _bench_id(args, kwargs):
    # FleetService.dispatch(self, request)
    request = _arg(args, kwargs, 1, "request")
    if isinstance(request, dict) and request.get("bench_id") is not None:
        return str(request["bench_id"])
    return None


def _count_outcome(tracer, args, kwargs, result, frame):
    if isinstance(result, dict):
        tracer.count(f"service.outcome.{result.get('outcome')}")


EXPERIMENT_FUNCTIONS = (
    ("e1", "frequency_degradation"),
    ("e2", "aging_bitflips"),
    ("e3", "uniqueness_experiment"),
    ("e4", "randomness_experiment"),
    ("e5", "environmental_reliability"),
    ("e6", "ecc_area_experiment"),
    ("e7", "duty_ablation"),
    ("e8", "layout_ablation"),
    ("e9", "masking_ablation"),
    ("e10", "authentication_experiment"),
    ("e11", "attack_experiment"),
    ("e12", "stage_ablation"),
    ("e13", "margin_forensics"),
)

TARGETS = (
    Target("repro.cli", "main", "cli.main"),
    *(
        Target("repro.analysis.experiments", fn, f"analysis.{key}")
        for key, fn in EXPERIMENT_FUNCTIONS
    ),
    Target(
        "repro.variation.process",
        "VariationModel.sample_population",
        "variation.sample_population",
        before=_count_chips,
    ),
    Target(
        "repro.variation.process",
        "VariationModel.sample_chip",
        "variation.sample_chip",
        mode="total",
    ),
    Target(
        "repro.aging.simulator",
        "AgingSimulator.population_aging",
        "aging.population_aging",
    ),
    Target("repro.aging.nbti", "sample_prefactors", "aging.nbti_prefactors", mode="total"),
    Target("repro.aging.hci", "sample_prefactors", "aging.hci_prefactors", mode="total"),
    Target("repro.core.factory", "make_study", "core.make_study"),
    Target("repro.core.population", "make_batch_study", "core.make_batch_study"),
    Target("repro.core.population", "BatchStudy.frequencies", "core.frequencies"),
    Target("repro.core.population", "BatchStudy.responses", "core.responses"),
    Target(
        "repro.core.population",
        "BatchStudy._memo_lookup",
        "core.memo_lookup",
        mode="count",
        after=_count_memo,
    ),
    Target(
        "repro.kernel.fused",
        "frequency_block_kernel",
        "kernel.frequency_block_kernel",
        mode="total",
        before=_count_kernel_bytes,
    ),
    Target("repro.store.store", "PopulationStore.ensure_rows", "store.ensure_rows"),
    Target("repro.store.store", "PopulationStore.release", "store.release", mode="total"),
    Target(
        "repro.store.store",
        "PopulationStore._fabricate_process",
        "store.fabricate_process",
        mode="count",
        before=_count_fabricated_rows,
    ),
    Target("repro.store.study", "StoreStudy.frequencies", "store.frequencies"),
    Target("repro.metrics.reliability", "reliability", "metrics.reliability"),
    Target("repro.metrics.uniqueness", "uniqueness", "metrics.uniqueness"),
    Target("repro.metrics.randomness", "randomness_battery", "metrics.randomness_battery"),
    Target(
        "repro.ecc.concatenated",
        "KeyCodec.key_failure_probability",
        "ecc.key_failure_probability",
        mode="total",
    ),
    Target("repro.keygen.design", "search_design_space", "keygen.search_design_space"),
    Target(
        "repro.keygen.fuzzy_extractor",
        "FuzzyExtractor.enroll",
        "keygen.enroll",
        mode="total",
    ),
    Target(
        "repro.keygen.fuzzy_extractor",
        "FuzzyExtractor.reproduce",
        "keygen.reproduce",
        mode="total",
    ),
    Target(
        "repro.protocol.authentication",
        "authentication_study",
        "protocol.authentication_study",
    ),
    Target("repro.protocol.attacks", "attack_curve", "protocol.attack_curve"),
    Target("repro.forensics.capture", "capture_forensics", "forensics.capture_forensics"),
    Target(
        "repro.service.server",
        "FleetService.dispatch",
        "service.dispatch",
        durations=True,
        rid=_bench_id,
        after=_count_outcome,
    ),
    *(
        Target(
            "repro.service.server",
            f"FleetService.{op}",
            f"service.{op}",
            durations=True,
        )
        for op in ("auth", "key", "enroll")
    ),
)

#: the root frame around ``import repro.cli`` when the hook runs the CLI
IMPORT_ENTRY = "import.repro_cli"


def _run_cli_as_main(tracer: Tracer, original: Callable) -> Callable:
    """A stand-in for ``runpy._run_module_as_main``.

    ``python -m repro.cli`` executes the module as ``__main__``, which
    never passes through the import system, so ``main`` could not be
    wrapped.  For that one module the stand-in imports ``repro.cli`` as
    a module (under a root frame, so import shows as a layer), sets
    ``sys.argv[0]`` as runpy would, and calls the wrapped ``main``
    exactly as the module's ``__main__`` block does.
    """

    def run_module_as_main(mod_name, alter_argv=True):
        if mod_name != "repro.cli":
            return original(mod_name, alter_argv)
        frame, token = tracer.begin(IMPORT_ENTRY)
        try:
            module = importlib.import_module(mod_name)
        finally:
            tracer.end(frame, token)
        if alter_argv:
            sys.argv[0] = module.__file__
        sys.exit(module.main())

    return run_module_as_main


def install(directory: str, targets=TARGETS) -> Tracer:
    """Start tracing this process and write the results at exit."""
    import runpy

    tracer = Tracer()
    by_module: Dict[str, list] = {}
    for target in targets:
        by_module.setdefault(target.module, []).append(target)
    sys.meta_path.insert(0, _PatchingFinder(tracer, by_module))
    runpy._run_module_as_main = _run_cli_as_main(tracer, runpy._run_module_as_main)
    atexit.register(tracer.write, directory)
    return tracer

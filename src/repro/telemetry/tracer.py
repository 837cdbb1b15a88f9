"""Process-local tracer: nestable spans and typed counters.

The design goal is a *near-zero-cost disabled path*: when no tracer is
installed (the default), every instrumentation site in the library pays a
single module-attribute load plus one ``is None`` branch — no allocation,
no clock read, no dictionary update.  The hot-path idiom is::

    from .. import telemetry

    sp = telemetry.start_span("batch.frequencies", corner="nominal")
    try:
        ...  # the instrumented work
    finally:
        telemetry.end_span(sp)

    telemetry.count("batch.corner_memo_hits")

``start_span`` returns ``None`` when disabled and ``end_span(None)`` /
``count`` return immediately, so the instrumented code never changes
shape between the two modes.  For code that prefers ``with`` blocks (cold
paths, experiment stages) the installed :class:`Tracer` also provides a
:meth:`Tracer.span` context manager.

The active span lives in a :mod:`contextvars` slot, which the asyncio
event loop snapshots per task.  Within one flow of control spans nest
exactly like a stack, across ``await`` boundaries too; a task created
with ``asyncio.create_task`` / ``asyncio.gather`` inherits the current
span as its parent but mutates only its own copy, so interleaved
requests never adopt or close each other's spans.  :meth:`Tracer.request`
is the serving entry point: a root span with a fresh per-request trace
id, parked on a recycled ``req-<k>`` lane of :attr:`Tracer.remote_lanes`
once it finishes.

Spans record wall time via :func:`time.perf_counter_ns`; memory is the
resource sampler's job (``--sample-rss``, :mod:`.sampler`), which charges
RSS samples to the open span.  Counters are monotonically accumulated
floats.  Everything lives on the tracer instance — there is
no global mutable state beyond the single "installed tracer" slot and the
context-local span slot, whose entries are tagged with their owning
tracer — so tests can create, install and discard tracers freely.
"""

from __future__ import annotations

import contextvars
import heapq
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed region of a trace.

    Spans form a tree: every span started while another is active becomes
    a child of that active span.  Timing uses ``perf_counter_ns`` so the
    clock is monotonic and immune to wall-clock adjustments.
    """

    __slots__ = (
        "name",
        "attrs",
        "parent",
        "children",
        "start_ns",
        "end_ns",
        "error",
    )

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attrs: Dict[str, Any] = attrs or {}
        self.parent: Optional["Span"] = None
        self.children: List["Span"] = []
        self.start_ns: int = 0
        self.end_ns: Optional[int] = None
        self.error: bool = False

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (to *now* if the span is still open)."""
        end = self.end_ns if self.end_ns is not None else time.perf_counter_ns()
        return end - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of this span and its subtree."""
        d: Dict[str, Any] = {
            "name": self.name,
            "duration_ns": self.duration_ns,
        }
        if self.attrs:
            d["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        if self.error:
            d["error"] = True
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def to_timed_dict(self) -> Dict[str, Any]:
        """Like :meth:`to_dict` but with absolute ``start_ns``/``end_ns``.

        This is the wire form a parallel worker ships its span forest in:
        timestamps stay on the worker's ``perf_counter_ns`` clock, and
        the coordinator re-bases them via the clock-offset handshake when
        rebuilding with :meth:`from_timed_dict`.
        """
        d: Dict[str, Any] = {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns if self.end_ns is not None else self.start_ns,
        }
        if self.attrs:
            d["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        if self.error:
            d["error"] = True
        if self.children:
            d["children"] = [c.to_timed_dict() for c in self.children]
        return d

    @classmethod
    def from_timed_dict(
        cls, data: Dict[str, Any], offset_ns: int = 0
    ) -> "Span":
        """Rebuild a :meth:`to_timed_dict` span, shifting every timestamp
        by ``offset_ns`` (the worker-to-coordinator clock alignment)."""
        span = cls(str(data["name"]), dict(data.get("attrs") or {}) or None)
        span.start_ns = int(data["start_ns"]) + offset_ns
        span.end_ns = int(data["end_ns"]) + offset_ns
        span.error = bool(data.get("error", False))
        for child_data in data.get("children", []):
            child = cls.from_timed_dict(child_data, offset_ns)
            child.parent = span
            span.children.append(child)
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_ns is None else f"{self.duration_s * 1e3:.3f} ms"
        return f"<Span {self.name!r} {state} children={len(self.children)}>"


def _jsonable(value: Any) -> Any:
    """Coerce a span attribute to a JSON-serialisable scalar."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalars
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


#: the context-local (tracer, span) pair.  One module-level ContextVar —
#: never per-instance — because contexts outlive tracers; entries are
#: tagged with their owning tracer and ignored by any other, so a stale
#: value from a discarded tracer cannot pollute a fresh one.
_CURRENT: "contextvars.ContextVar[Optional[Tuple[Tracer, Span]]]" = (
    contextvars.ContextVar("repro_span", default=None)
)


class Tracer:
    """Collects spans, counters and histograms for one run."""

    def __init__(self):
        self.roots: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, "Histogram"] = {}
        #: re-based span forests from other processes, keyed by lane
        #: label (``worker-<k>``), and finished requests (``req-<k>``) —
        #: rendered as extra timeline lanes by the Chrome-trace export,
        #: never by the terminal tree
        self.remote_lanes: Dict[str, List[Span]] = {}
        # the coordinator half of the clock-alignment handshake: one
        # (wall, perf) pair read back-to-back.  A worker ships its own
        # pair; the wall clocks are the common reference that converts
        # the worker's perf timestamps onto this tracer's perf timeline.
        self.wall0_ns, self.perf0_ns = clock_handshake()
        self._open: "set[Span]" = set()
        # the most recently started span still open anywhere: what a
        # thread outside every traced context (the resource sampler)
        # attributes its ticks to
        self._latest: Optional[Span] = None
        self._free_lanes: List[int] = []
        self._n_lanes = 0
        self._trace_seq = 0

    # ---- spans -------------------------------------------------------

    def start_span(self, name: str, **attrs: Any) -> Span:
        """Open a span as a child of the *context-local* active span."""
        span = Span(name, attrs or None)
        entry = _CURRENT.get()
        parent = entry[1] if entry is not None and entry[0] is self else None
        if parent is not None:
            span.parent = parent
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._open.add(span)
        self._latest = span
        _CURRENT.set((self, span))
        span.start_ns = time.perf_counter_ns()
        return span

    def end_span(self, span: Span) -> Span:
        """Close ``span`` (and any forgotten descendants still open in
        the calling context), then re-activate its parent *in this
        context only* — sibling tasks are untouched."""
        end_ns = time.perf_counter_ns()
        if span.end_ns is not None:
            raise ValueError(f"span {span.name!r} already ended")
        if span not in self._open:
            raise ValueError(f"span {span.name!r} is not open on this tracer")
        entry = _CURRENT.get()
        node = entry[1] if entry is not None and entry[0] is self else None
        # unwind the context-local parent chain down to span, closing
        # descendants an exception path forgot to end
        closing: List[Span] = []
        while node is not None and node is not span:
            closing.append(node)
            node = node.parent
        if node is not span:
            closing = []
        closing.append(span)
        self._finish(closing, end_ns)
        _CURRENT.set((self, span.parent) if span.parent is not None else None)
        latest = self._latest
        while latest is not None and latest.end_ns is not None:
            latest = latest.parent
        self._latest = latest
        return span

    def _finish(self, spans: List[Span], end_ns: int) -> None:
        """Stamp ``end_ns`` on the still-open ``spans`` and drop them
        from the open set."""
        for sp in spans:
            if sp.end_ns is None:
                sp.end_ns = end_ns
            self._open.discard(sp)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with tracer.span("stage"):`` convenience wrapper.

        A raising body still closes the span; the span is kept in the
        tree with its ``error`` flag raised, so a failed stage shows up
        in the terminal tree and the Chrome-trace export instead of
        silently vanishing from the timeline.
        """
        sp = self.start_span(name, **attrs)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            self.end_span(sp)

    @property
    def active_span(self) -> Optional[Span]:
        """The calling context's open span — or, read from a thread
        outside every traced context (the resource sampler), the most
        recently started span still open anywhere, which is the right
        attribution for a sample taken while the loop serves requests."""
        entry = _CURRENT.get()
        if entry is not None and entry[0] is self:
            span = entry[1]
            if span is not None and span.end_ns is None:
                return span
        return self._latest

    # ---- per-request tracing -----------------------------------------

    @contextmanager
    def request(self, endpoint: str, **attrs: Any) -> Iterator[Span]:
        """Trace one request: a fresh root span with its own trace id.

        The span is detached from any ambient span (the accept loop's
        ``serve`` span must not adopt every request as a child), given a
        ``trace_id``/``endpoint`` pair, and — once finished — moved off
        the coordinator roots onto a request lane (``req-<k>``).  Lanes
        are recycled lowest-free-first, so the lane count equals the
        peak request concurrency, not the request count, and the
        exported timeline shows concurrency instead of a pile-up.
        """
        self._trace_seq += 1
        if self._free_lanes:
            lane = heapq.heappop(self._free_lanes)
        else:
            lane = self._n_lanes
            self._n_lanes += 1
        token = _CURRENT.set(None)  # detach: requests are roots
        span = self.start_span(
            f"request.{endpoint}",
            trace_id=self._trace_seq,
            endpoint=endpoint,
            **attrs,
        )
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            if span.end_ns is None:
                self.end_span(span)
            _CURRENT.reset(token)
            self.roots.remove(span)
            self.add_remote_lane(f"req-{lane}", [span])
            heapq.heappush(self._free_lanes, lane)

    # ---- counters ----------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto counter ``name`` (monotone)."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    # ---- histograms --------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Fold one sample into histogram ``name`` (created on first use)."""
        hist = self.histograms.get(name)
        if hist is None:
            from .histogram import Histogram

            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def merge_histogram(self, name: str, other) -> None:
        """Fold a histogram (or its :meth:`~Histogram.to_dict` form) in.

        How the parallel coordinator absorbs worker distributions: the
        fixed shared bucket layout makes the merge exact up to bucket
        resolution, so merged quantiles match a serial run's for any
        worker count.
        """
        from .histogram import Histogram

        if isinstance(other, dict):
            other = Histogram.from_dict(other)
        hist = self.histograms.get(name)
        if hist is None:
            self.histograms[name] = other
        else:
            hist.merge(other)

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """``{name: {count, mean, min, max, p50, p95, p99}}``, sorted."""
        from .histogram import summarise

        return summarise(self.histograms)

    # ---- remote lanes ------------------------------------------------

    def add_remote_lane(self, label: str, spans: List[Span]) -> None:
        """Append another process's (re-based) span roots to lane
        ``label``; repeated evaluation rounds accumulate on one lane."""
        self.remote_lanes.setdefault(label, []).extend(spans)

    # ---- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """End every still-open span."""
        self._finish(list(self._open), time.perf_counter_ns())
        self._latest = None
        entry = _CURRENT.get()
        if entry is not None and entry[0] is self:
            _CURRENT.set(None)

    def peak_rss_kb(self) -> Optional[float]:
        """Process peak RSS in KiB (``ru_maxrss``), if the platform has it."""
        peak = peak_rss_bytes()
        return None if peak is None else peak / 1024.0


def clock_handshake() -> "tuple[int, int]":
    """One ``(wall_ns, perf_ns)`` pair, read back-to-back.

    The worker clock-alignment contract: ``perf_counter_ns`` is the
    trace clock (monotonic, high resolution) but each process's counter
    has an arbitrary epoch, so cross-process spans cannot be compared
    raw.  Every party records this pair once; for a worker pair
    ``(Ww, Pw)`` and a coordinator pair ``(Wc, Pc)`` the offset

        ``(Ww - Pw) - (Wc - Pc)``

    converts any worker perf timestamp onto the coordinator's perf
    timeline, with error bounded by the wall-clock read skew (sub-µs —
    invisible at span granularity).
    """
    return time.time_ns(), time.perf_counter_ns()


def _rusage_peak_bytes(platform_name: Optional[str] = None) -> Optional[int]:
    """Peak RSS from ``getrusage`` in bytes, or ``None`` without POSIX.

    ``ru_maxrss`` is reported in KiB on Linux (and most BSDs) but in
    *bytes* on macOS — ``man getrusage`` on each.  ``platform_name``
    overrides ``sys.platform`` so the unit conversion is unit-testable
    from any host.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    import sys

    if (platform_name or sys.platform) == "darwin":
        return int(peak)
    return int(peak) * 1024


def peak_rss_bytes(
    proc_status: str = "/proc/self/status",
    platform_name: Optional[str] = None,
) -> Optional[int]:
    """This process's peak RSS in bytes, if the platform exposes it.

    The module-level form of :meth:`Tracer.peak_rss_kb` — callable with no
    tracer installed, which is how the CLI samples the high-water mark of
    an out-of-core (``--store mmap``) run for its manifest and ledger.

    On Linux the ``VmHWM`` line of ``/proc/self/status`` is preferred
    over ``ru_maxrss``: the kernel does not reset ``ru_maxrss`` across
    ``vfork``+``exec`` (how CPython's subprocess spawns children), so a
    child launched from a large parent inherits the *parent's* high-water
    mark there, while ``VmHWM`` belongs to this process's own address
    space.  On macOS (and anywhere else without ``/proc``) the fallback
    is :func:`_rusage_peak_bytes` — ``ru_maxrss`` with the
    platform-correct unit (bytes on darwin, KiB elsewhere) — so
    manifests stay populated off-Linux instead of silently reading
    nothing.  ``proc_status``/``platform_name`` exist for tests, which
    exercise the fallback from a Linux host.
    """
    try:
        with open(proc_status) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return _rusage_peak_bytes(platform_name)


# ----------------------------------------------------------------------
# the installed-tracer slot and the single-branch hot-path API
# ----------------------------------------------------------------------

#: the one process-local tracer, or None (disabled).  Instrumentation
#: sites read this through the helpers below; tests and the CLI install
#: and remove tracers via install()/uninstall()/session().
_active: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when telemetry is disabled."""
    return _active


def install(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-local tracer (returns it)."""
    global _active
    if _active is not None:
        raise RuntimeError("a tracer is already installed; uninstall() first")
    _active = tracer
    return tracer


def uninstall() -> Optional[Tracer]:
    """Remove and return the installed tracer (no-op when disabled)."""
    global _active
    tracer, _active = _active, None
    if tracer is not None:
        tracer.close()
    return tracer


@contextmanager
def session() -> Iterator[Tracer]:
    """Install a fresh :class:`Tracer` for the duration of a block."""
    tracer = install(Tracer())
    try:
        yield tracer
    finally:
        uninstall()


def start_span(name: str, **attrs: Any) -> Optional[Span]:
    """Open a span on the installed tracer; ``None`` when disabled.

    The disabled path is one global load and one branch — cheap enough
    for per-grid-point call sites (not per-element ones).
    """
    t = _active
    if t is None:
        return None
    return t.start_span(name, **attrs)


def end_span(span: Optional[Span]) -> None:
    """Close a span from :func:`start_span` (no-op for ``None``)."""
    if span is None:
        return
    t = _active
    if t is not None:
        t.end_span(span)


def count(name: str, value: float = 1.0) -> None:
    """Accumulate onto a counter of the installed tracer (no-op when
    disabled)."""
    t = _active
    if t is not None:
        t.count(name, value)


def observe(name: str, value: float) -> None:
    """Fold a sample into a histogram of the installed tracer.

    The distribution sibling of :func:`count`: one attribute load and
    one branch when disabled, so per-block kernel latencies can report
    through it without a measurable disabled-path cost.
    """
    t = _active
    if t is not None:
        t.observe(name, value)


def enabled() -> bool:
    """True when a tracer is installed."""
    return _active is not None


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """``with telemetry.span("stage"):`` — traced when enabled, a plain
    no-op context otherwise.  For cold call sites; the hot paths use the
    start/end pair to keep the disabled cost to a single branch."""
    sp = start_span(name, **attrs)
    try:
        yield sp
    except BaseException:
        if sp is not None:
            sp.error = True
        raise
    finally:
        end_span(sp)

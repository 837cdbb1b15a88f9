"""Span-forest attribution: self time, critical path, collapsed stacks.

The span tree says what ran; a perf investigation needs three sharper
answers this module computes from the same forests:

* :func:`aggregate` — *where did the time go*: per-label call count,
  total (inclusive) time and **self time** (a span's duration minus its
  children's), summed across every lane.  Self time is what a flame
  graph colours and what an optimisation actually removes — a parent
  whose children account for all its duration has nothing to optimise
  locally.
* :func:`critical_path` — *what bounded the wall clock*: a backward
  sweep across all lanes (coordinator ``tid`` 0 plus every worker lane,
  already rebased onto one clock by the ``clock_handshake()`` offset
  when the lane was folded in) picking, at each instant, the deepest
  active span.  The result is a segment list whose durations sum to the
  covered wall time — the only spans whose speedup can shorten the run.
* :func:`collapsed_stacks` — the ``semicolon;joined;stack weight``
  format flamegraph.pl and speedscope ingest, weighted by self time in
  integer microseconds.

Lanes are rebuilt from a ``--trace-out`` Chrome trace-event artefact
(:func:`lanes_from_chrome_trace`), which re-nests flat ``"X"`` slices by
containment per ``tid``, so ``repro perf flame`` and ``repro perf
report`` work on any previously written trace file without re-running
the sweep.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from .tracer import Span

PathLike = Union[str, pathlib.Path]

Lanes = Dict[str, List[Span]]


def lanes_from_chrome_trace(payload: Mapping[str, Any]) -> Lanes:
    """Rebuild span forests from a Chrome trace-event artefact.

    Accepts the ``{"traceEvents": [...]}`` object form ``--trace-out``
    writes (or a bare event list).  Slices are re-nested by containment
    within each ``tid``: after sorting by (start, -duration), a slice's
    parent is the innermost still-open slice that contains it.  Lane
    names come from ``thread_name`` metadata events, falling back to
    ``tid-<n>``.  Counter and metadata events carry no duration and are
    ignored, and so is an event whose ``tid``, ``ts`` or ``dur`` is not
    a finite number.
    """
    if isinstance(payload, Mapping):
        events = payload.get("traceEvents", [])
    else:
        events = payload
    if not isinstance(events, list):
        raise ValueError("chrome trace has no traceEvents list")
    names: Dict[int, str] = {}
    slices: Dict[int, List[Tuple[int, int, str, Dict[str, Any]]]] = {}
    for event in events:
        if not isinstance(event, Mapping):
            continue
        ph = event.get("ph")
        if ph not in ("M", "X"):
            continue
        try:
            tid = int(event.get("tid", 0))
            start_ns = int(round(float(event.get("ts", 0.0)) * 1e3))
            dur_ns = int(round(float(event.get("dur", 0.0)) * 1e3))
        except (TypeError, ValueError, OverflowError):
            continue
        args = event.get("args")
        attrs = dict(args) if isinstance(args, Mapping) else {}
        if ph == "M":
            if event.get("name") == "thread_name":
                label = attrs.get("name")
                if isinstance(label, str) and label:
                    names[tid] = label
            continue
        name = str(event.get("name", "?"))
        slices.setdefault(tid, []).append((start_ns, dur_ns, name, attrs))
    lanes: Lanes = {}
    for tid in sorted(slices):
        label = names.get(tid, f"tid-{tid}")
        roots: List[Span] = []
        stack: List[Span] = []
        # widest-first at equal starts, so parents precede their children
        for start_ns, dur_ns, name, attrs in sorted(
            slices[tid], key=lambda s: (s[0], -s[1])
        ):
            span = Span(name, attrs or None)
            span.start_ns = start_ns
            span.end_ns = start_ns + max(0, dur_ns)
            while stack and stack[-1].end_ns < span.end_ns:
                stack.pop()
            while stack and not (
                stack[-1].start_ns <= span.start_ns
                and span.end_ns <= stack[-1].end_ns
            ):
                stack.pop()
            if stack:
                span.parent = stack[-1]
                stack[-1].children.append(span)
            else:
                roots.append(span)
            stack.append(span)
        lanes[label] = roots
    return lanes


# ---- self-time aggregation -----------------------------------------------


@dataclass(frozen=True)
class ProfileRow:
    """One span label's aggregate across every lane."""

    label: str
    calls: int
    total_ns: int  # inclusive: sum of span durations
    self_ns: int  # exclusive: total minus children, clamped at zero

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9


def _span_dur_ns(span: Span) -> int:
    end = span.end_ns if span.end_ns is not None else span.start_ns
    return max(0, end - span.start_ns)


def _accumulate(
    span: Span, acc: Dict[str, List[int]]
) -> None:
    dur = _span_dur_ns(span)
    child_ns = sum(_span_dur_ns(c) for c in span.children)
    row = acc.setdefault(span.name, [0, 0, 0])
    row[0] += 1
    row[1] += dur
    # overlapping/async children could exceed the parent; self time is
    # clamped so a table never shows negative attribution
    row[2] += max(0, dur - child_ns)
    for child in span.children:
        _accumulate(child, acc)


def aggregate(lanes: Lanes) -> List[ProfileRow]:
    """Per-label rows, sorted by self time (descending), then label."""
    acc: Dict[str, List[int]] = {}
    for roots in lanes.values():
        for root in roots:
            _accumulate(root, acc)
    rows = [
        ProfileRow(label=label, calls=c, total_ns=t, self_ns=s)
        for label, (c, t, s) in acc.items()
    ]
    rows.sort(key=lambda r: (-r.self_ns, r.label))
    return rows


# ---- critical path -------------------------------------------------------


@dataclass(frozen=True)
class PathSegment:
    """One stretch of the critical path: a span bounding the wall clock."""

    lane: str
    label: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9


def _flatten(
    span: Span, lane: str, depth: int, out: List[Tuple[int, int, int, str, str]]
) -> None:
    out.append((span.start_ns, span.start_ns + _span_dur_ns(span), depth, lane, span.name))
    for child in span.children:
        _flatten(child, lane, depth + 1, out)


def critical_path(lanes: Lanes) -> List[PathSegment]:
    """The chain of spans that bounded the wall clock, earliest first.

    Boundary sweep: between every pair of adjacent span start/end
    timestamps (across all lanes, already on one rebased clock), the
    critical path is the *deepest, latest-starting* span active in that
    interval — the most specific description of what the run was doing.
    Adjacent intervals attributed to the same span merge into one
    segment; intervals where nothing ran (a scheduling gap between
    shards) are simply absent, so segment durations sum to exactly the
    busy wall time and every segment names work whose speedup would
    have shortened the run.
    """
    spans: List[Tuple[int, int, int, str, str]] = []
    for lane, roots in lanes.items():
        for root in roots:
            _flatten(root, lane, 0, spans)
    spans = [s for s in spans if s[1] > s[0]]
    if not spans:
        return []
    bounds = sorted({t for start, end, _, _, _ in spans for t in (start, end)})
    segments: List[PathSegment] = []
    for t0, t1 in zip(bounds, bounds[1:]):
        active = [s for s in spans if s[0] <= t0 and s[1] >= t1]
        if not active:
            continue
        _start, _end, _depth, lane, name = max(
            active, key=lambda s: (s[2], s[0])
        )
        last = segments[-1] if segments else None
        if (
            last is not None
            and last.end_ns == t0
            and last.lane == lane
            and last.label == name
        ):
            segments[-1] = PathSegment(
                lane=lane, label=name, start_ns=last.start_ns, end_ns=t1
            )
        else:
            segments.append(
                PathSegment(lane=lane, label=name, start_ns=t0, end_ns=t1)
            )
    return segments


def render_critical_path(segments: Sequence[PathSegment]) -> str:
    """The critical-path table: one row per segment, earliest first."""
    if not segments:
        return "(no critical path: no timed spans)"
    total_ns = sum(s.duration_ns for s in segments)
    width = max(len(f"{s.lane}:{s.label}") for s in segments)
    lines = [f"critical path ({total_ns / 1e9:.3f}s covered):"]
    for s in segments:
        share = 100.0 * s.duration_ns / total_ns if total_ns else 0.0
        lines.append(
            f"  {f'{s.lane}:{s.label}':<{width}}  {s.duration_s:>9.3f}s  "
            f"({share:5.1f}%)"
        )
    return "\n".join(lines)


# ---- collapsed stacks ----------------------------------------------------


def _collapse(
    span: Span, lane: str, frames: List[str], acc: Dict[str, int]
) -> None:
    frames.append(span.name.replace(";", ","))
    self_ns = _span_dur_ns(span) - sum(_span_dur_ns(c) for c in span.children)
    if self_ns > 0:
        stack = ";".join([lane] + frames)
        # weight is integer microseconds; genuinely positive self time
        # never rounds to a dropped zero-weight line
        acc[stack] = acc.get(stack, 0) + max(1, round(self_ns / 1e3))
    for child in span.children:
        _collapse(child, lane, frames, acc)
    frames.pop()


def collapsed_stacks(lanes: Lanes) -> Dict[str, int]:
    """``{"lane;parent;child": self-time µs}`` over every lane.

    The flamegraph.pl / speedscope input format: one line per unique
    stack, weight = self time in integer microseconds.  Lane labels are
    the root frame, so coordinator and worker time stay separable in
    the flame graph.  Semicolons inside span names are mapped to commas
    (the format reserves ``;`` as the frame separator).
    """
    acc: Dict[str, int] = {}
    for lane, roots in lanes.items():
        safe_lane = lane.replace(";", ",")
        for root in roots:
            _collapse(root, safe_lane, [], acc)
    return acc


def render_collapsed(stacks: Mapping[str, int]) -> str:
    """Collapsed stacks as the canonical ``stack weight`` text lines."""
    return "\n".join(
        f"{stack} {weight}" for stack, weight in sorted(stacks.items())
    )


def write_collapsed(path: PathLike, stacks: Mapping[str, int]) -> pathlib.Path:
    """Write collapsed stacks to ``path`` (one ``stack weight`` per line)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = render_collapsed(stacks)
    path.write_text(text + "\n" if text else "")
    return path

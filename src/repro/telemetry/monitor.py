"""``repro monitor``: render a live (or post-hoc) view of an events file.

The progress emitter writes a throttled JSONL heartbeat; this module is
its reader.  :func:`parse_events` folds event lines (any mix of
``progress``, lifecycle and sampler ``sample`` records; malformed lines
are skipped and counted by :func:`repro.telemetry.jsonl.parse`) into a
:class:`MonitorState`; :func:`render_monitor` turns the
state into the terminal dashboard: per-stage progress bars with a
rolling rate and ETA, the currently open span, and an RSS sparkline
from the sampler echoes.

Both halves are pure (lines in, text out) so the dashboard is testable
without threads, files or timing; the CLI's ``monitor`` subcommand owns
the tail-and-redraw loop around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import jsonl
from .history import sparkline

#: (elapsed_s, done) pairs kept per stage for the rolling rate
RATE_WINDOW = 8


@dataclass
class StageProgress:
    """Latest knowledge about one progress stage."""

    name: str
    done: int = 0
    total: Optional[int] = None
    eta_s: Optional[float] = None
    first_elapsed_s: float = 0.0
    last_elapsed_s: float = 0.0
    history: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def rate(self) -> Optional[float]:
        """Rolling items/sec over the last :data:`RATE_WINDOW` events."""
        if len(self.history) < 2:
            return None
        (t0, d0), (t1, d1) = self.history[0], self.history[-1]
        if t1 <= t0:
            return None
        return (d1 - d0) / (t1 - t0)

    @property
    def fraction(self) -> Optional[float]:
        if not self.total:
            return None
        return min(1.0, self.done / self.total)


@dataclass
class MonitorState:
    """Everything the dashboard knows after folding an events file."""

    stages: Dict[str, StageProgress] = field(default_factory=dict)
    runs_started: int = 0
    runs_ended: int = 0
    command: Optional[str] = None
    experiment: Optional[Any] = None
    current_span: Optional[str] = None
    rss_series: List[float] = field(default_factory=list)
    last_rss_bytes: Optional[float] = None
    lag_series: List[float] = field(default_factory=list)
    last_loop_lag_ms: Optional[float] = None
    elapsed_s: float = 0.0
    n_events: int = 0
    n_skipped: int = 0

    @property
    def running(self) -> bool:
        return self.runs_started > self.runs_ended


def parse_events(
    lines: Sequence[str], state: Optional[MonitorState] = None
) -> MonitorState:
    """Fold event lines into ``state`` (a fresh one by default).

    Incremental by design: the CLI's follow mode keeps one state and
    feeds only the newly appended lines of each tail round.  A line that
    is not JSON and a record that does not fold (no ``event``, a field
    of the wrong type, a number too large for a float) are skipped and
    counted alike.
    """
    state = state or MonitorState()
    _, skipped = jsonl.parse(lines, load=lambda record: _fold(state, record))
    state.n_skipped += skipped
    return state


def _fold(state: MonitorState, record: Dict[str, Any]) -> None:
    """Fold one event into ``state``.

    Every field is converted before the state changes, so a record that
    raises leaves the state as it was.
    """
    kind = record["event"]
    elapsed = float(record.get("elapsed_s") or 0.0)
    if kind == "progress":
        _fold_progress(state, record, elapsed)
    elif kind == "sample":
        _fold_sample(state, record)
    elif kind == "run.start":
        state.runs_started += 1
        state.command = record.get("command") or state.command
        if record.get("experiment") is not None:
            state.experiment = record.get("experiment")
    elif kind == "run.end":
        state.runs_ended += 1
    # unknown lifecycle kinds (cache.hit, ...) still count as events
    state.n_events += 1
    state.elapsed_s = max(state.elapsed_s, elapsed)


def _number(record: Dict[str, Any], key: str, types: Any = (int, float)) -> Any:
    """``record[key]`` when it is one of ``types`` (``None`` otherwise).

    An integer too large for a float raises ``OverflowError``: the
    dashboard divides and plots these values.
    """
    value = record.get(key)
    if not isinstance(value, types) or isinstance(value, bool):
        return None
    float(value)
    return value


def _fold_progress(
    state: MonitorState, record: Dict[str, Any], elapsed: float
) -> None:
    stage_name = record.get("stage")
    if not isinstance(stage_name, str):
        raise ValueError("progress event without a stage name")
    done = _number(record, "done", int)
    total = _number(record, "total", int)
    eta = _number(record, "eta_s")
    stage = state.stages.get(stage_name)
    if stage is None:
        stage = state.stages[stage_name] = StageProgress(
            stage_name, first_elapsed_s=elapsed
        )
    if done is not None:
        if done < stage.done:
            # the stage restarted (next corner of a sweep): reset the
            # rolling window so the rate reflects the current pass
            stage.history.clear()
        stage.done = done
        stage.history.append((elapsed, done))
        del stage.history[:-RATE_WINDOW]
    if total is not None:
        stage.total = total
    stage.eta_s = None if eta is None else float(eta)
    stage.last_elapsed_s = elapsed


def _fold_sample(state: MonitorState, record: Dict[str, Any]) -> None:
    rss = _number(record, "rss_bytes")
    # the event-loop-lag probe (serving runs) echoes through the sampler
    # as a flattened probe field; fold it like the RSS series
    lag = _number(record, "loop_lag_ms")
    if rss is not None:
        state.last_rss_bytes = float(rss)
        state.rss_series.append(float(rss))
        del state.rss_series[:-120]  # one dashboard row's worth
    span = record.get("span")
    if isinstance(span, str):
        state.current_span = span
    if lag is not None:
        state.last_loop_lag_ms = float(lag)
        state.lag_series.append(float(lag))
        del state.lag_series[:-120]


def _bar(fraction: Optional[float], width: int = 24) -> str:
    if fraction is None:
        return "·" * width
    filled = int(round(fraction * width))
    return "█" * filled + "·" * (width - filled)


def _fmt_rss(n_bytes: float) -> str:
    if n_bytes >= 1 << 30:
        return f"{n_bytes / (1 << 30):.2f} GiB"
    return f"{n_bytes / (1 << 20):.0f} MiB"


def render_monitor(state: MonitorState, spark_width: int = 40) -> str:
    """The terminal dashboard for one folded state."""
    if state.n_events == 0:
        if state.n_skipped:
            return f"(no readable events; {state.n_skipped} line(s) skipped)"
        return "(no events yet)"
    status = "running" if state.running else "finished"
    head = f"run: {state.command or '?'}"
    if state.experiment is not None:
        head += f" {state.experiment}"
    head += f"  [{status}]  t={state.elapsed_s:.1f}s  events={state.n_events}"
    if state.n_skipped:
        head += f" (+{state.n_skipped} skipped)"
    lines = [head]
    if state.current_span:
        lines.append(f"span: {state.current_span}")
    if state.stages:
        width = max(len(name) for name in state.stages)
        for name in sorted(state.stages):
            stage = state.stages[name]
            row = f"{name:<{width}}  [{_bar(stage.fraction)}]"
            if stage.total:
                row += f" {stage.done}/{stage.total}"
            else:
                row += f" {stage.done}"
            rate = stage.rate
            if rate is not None:
                row += f"  {rate:,.0f}/s"
            if stage.eta_s is not None:
                row += f"  eta {stage.eta_s:.1f}s"
            lines.append(row)
    if state.rss_series:
        series = state.rss_series[-spark_width:]
        lines.append(
            f"rss : {sparkline(series)}  now {_fmt_rss(series[-1])}  "
            f"peak {_fmt_rss(max(state.rss_series))}"
        )
    if state.lag_series:
        series = state.lag_series[-spark_width:]
        lines.append(
            f"lag : {sparkline(series)}  now {series[-1]:.2f} ms  "
            f"peak {max(state.lag_series):.2f} ms"
        )
    return "\n".join(lines)

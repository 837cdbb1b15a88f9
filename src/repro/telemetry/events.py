"""Progress events: a throttled JSONL heartbeat for long-running sweeps.

A paper-scale Monte-Carlo sweep can run for minutes with nothing on the
terminal and nothing on disk until the final tables land.  This module
gives the batched engines a *heartbeat*: a :class:`ProgressEmitter`
appends small structured events (stage, items done, ETA) to a JSONL file
that an operator — or a CI watchdog — can ``tail -f`` while the run is
in flight.

Design constraints, in order:

1. **Disabled must be free.**  The hot loops in
   :mod:`repro.core.population` and :mod:`repro.aging.simulator` call
   :func:`progress` unconditionally; with no emitter installed that is
   one module-attribute load and one ``is None`` branch — the same
   single-branch idiom as the tracer's :func:`~repro.telemetry.count`.
2. **Enabled must be throttled.**  Events are rate-limited by wall time
   (``min_interval_s``, default 250 ms) and hard-capped per emitter
   lifetime (``max_events``), so even a pathological million-block sweep
   writes a bounded number of lines and the enabled overhead on the E2
   sweep stays under the telemetry budget
   (``benchmarks/bench_hooks.py``).
3. **Events must be self-describing.**  Every line carries the stage
   name, elapsed seconds since the emitter opened, and — when the call
   site reports ``done``/``total`` — a linear-extrapolation ETA for the
   stage, so a heartbeat line is useful without the rest of the file.

The emitter is installed process-locally (one slot, mirroring the
tracer) via :func:`install_emitter` / :func:`uninstall_emitter` /
:func:`emitter_session`; the CLI's ``--events PATH`` flag wires it
around a run.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Union

from . import jsonl

PathLike = Union[str, pathlib.Path]

#: format version of one event line, bumped on layout changes
EVENTS_FORMAT = 1


class ProgressEmitter:
    """Appends throttled progress events to a JSONL file.

    Parameters
    ----------
    path:
        Destination JSONL file, opened with
        :func:`~repro.telemetry.jsonl.open_append` (parent directories
        created, a torn last line ended) so several runs can share one
        heartbeat log.
    min_interval_s:
        Minimum wall time between written events (lifecycle events
        bypass the interval but still count against ``max_events``).
    max_events:
        Hard cap on lines written over the emitter's lifetime — the
        bound that keeps a runaway loop from filling a disk.
    max_bytes:
        Optional size cap for long-lived runs (a server left serving for
        days): when the *file* would grow past it, the current file is
        rotated to ``<name>.1`` (replacing any previous rotation) and a
        fresh file is started — disk usage stays bounded by roughly
        ``2 * max_bytes`` however long the emitter lives.  Minimum 1024;
        ``None`` (the default) never rotates.
    clock:
        Injectable monotonic clock (tests pin it to fake time).
    """

    def __init__(
        self,
        path: PathLike,
        *,
        min_interval_s: float = 0.25,
        max_events: int = 1000,
        max_bytes: Optional[int] = None,
        clock=time.monotonic,
    ):
        if min_interval_s < 0:
            raise ValueError("min_interval_s must be non-negative")
        if max_events < 1:
            raise ValueError("max_events must be positive")
        if max_bytes is not None and max_bytes < 1024:
            raise ValueError("max_bytes must be >= 1024 (or None)")
        self.path = pathlib.Path(path)
        self.min_interval_s = float(min_interval_s)
        self.max_events = int(max_events)
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        self._clock = clock
        self._fh = jsonl.open_append(self.path)
        self._bytes = self._fh.tell()  # append mode: current file size
        self._t0 = clock()
        self._last_write: Optional[float] = None
        self._stage_first_seen: Dict[str, float] = {}
        self.n_events = 0
        self.n_throttled = 0
        self.n_rotations = 0

    # ---- emission ----------------------------------------------------

    def emit(
        self,
        stage: str,
        done: Optional[int] = None,
        total: Optional[int] = None,
        *,
        force: bool = False,
        **fields: Any,
    ) -> bool:
        """Record one progress event; returns True when a line was written.

        Calls beyond the rate limit (or the lifetime cap) are dropped —
        the caller never needs to care whether the heartbeat fired.
        """
        if self._fh is None or self.n_events >= self.max_events:
            return False
        now = self._clock()
        # stage start is tracked on every call (cheap dict hit), so the
        # ETA of the first *written* event already reflects real progress
        start = self._stage_first_seen.setdefault(stage, now)
        if (
            not force
            and self._last_write is not None
            and (now - self._last_write) < self.min_interval_s
        ):
            self.n_throttled += 1
            return False
        record: Dict[str, Any] = {
            "format": EVENTS_FORMAT,
            "event": "progress",
            "stage": stage,
            "elapsed_s": round(now - self._t0, 6),
        }
        if done is not None:
            record["done"] = int(done)
        if total is not None:
            record["total"] = int(total)
        if done and total and 0 < done <= total:
            stage_elapsed = now - start
            if done < total and stage_elapsed > 0:
                record["eta_s"] = round(stage_elapsed * (total - done) / done, 6)
        record.update(fields)
        self._write(record)
        self._last_write = now
        return True

    def lifecycle(self, event: str, **fields: Any) -> bool:
        """Write an unthrottled lifecycle marker (``run.start`` etc.).

        Bypasses the rate limit — a run's start/end must always land —
        but still counts against (and respects) ``max_events``.
        """
        if self._fh is None or self.n_events >= self.max_events:
            return False
        record: Dict[str, Any] = {
            "format": EVENTS_FORMAT,
            "event": event,
            "elapsed_s": round(self._clock() - self._t0, 6),
        }
        record.update(fields)
        self._write(record)
        self._last_write = self._clock()
        return True

    def _write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        if (
            self.max_bytes is not None
            and self._bytes > 0
            and self._bytes + len(line) > self.max_bytes
        ):
            self._rotate()
        self._fh.write(line)
        self._fh.flush()  # heartbeats must be visible to `tail -f` now
        self._bytes += len(line)
        self.n_events += 1

    def _rotate(self) -> None:
        """Move the full file aside to ``<name>.1`` and start fresh.

        A single backup generation keeps the implementation atomic
        (one ``rename``) and the disk bound tight; readers following the
        live file (``repro monitor --follow``) detect the shrink-with-
        sibling and restart from the new file's head.
        """
        self._fh.close()
        self._fh = None  # a failed rotation must not look half-open
        self.path.replace(self.path.with_name(self.path.name + ".1"))
        self._fh = jsonl.open_append(self.path)
        self._bytes = 0
        self.n_rotations += 1

    # ---- lifecycle ---------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProgressEmitter {str(self.path)!r} events={self.n_events}"
            f"/{self.max_events}>"
        )


# ----------------------------------------------------------------------
# the installed-emitter slot and the single-branch hot-path API
# ----------------------------------------------------------------------

#: the one process-local emitter, or None (disabled) — mirrors the
#: tracer's installed slot so instrumented loops pay one branch when off
_emitter: Optional[ProgressEmitter] = None


def active_emitter() -> Optional[ProgressEmitter]:
    """The installed emitter, or ``None`` when heartbeats are disabled."""
    return _emitter


def install_emitter(emitter: ProgressEmitter) -> ProgressEmitter:
    """Install ``emitter`` as the process-local emitter (returns it)."""
    global _emitter
    if _emitter is not None:
        raise RuntimeError("an emitter is already installed; uninstall first")
    _emitter = emitter
    return emitter


def uninstall_emitter() -> Optional[ProgressEmitter]:
    """Remove, close and return the installed emitter (no-op when off)."""
    global _emitter
    emitter, _emitter = _emitter, None
    if emitter is not None:
        emitter.close()
    return emitter


@contextmanager
def emitter_session(
    path: PathLike, **kwargs: Any
) -> Iterator[ProgressEmitter]:
    """Install a fresh :class:`ProgressEmitter` for the duration of a block."""
    emitter = install_emitter(ProgressEmitter(path, **kwargs))
    try:
        yield emitter
    finally:
        uninstall_emitter()


def progress(
    stage: str, done: Optional[int] = None, total: Optional[int] = None
) -> None:
    """Heartbeat from a hot loop; a single branch when disabled.

    Call sites report monotone progress (``done`` of ``total`` items for
    the stage); the installed emitter throttles and formats.  Cheap
    enough for per-block call sites (not per-element ones).
    """
    e = _emitter
    if e is None:
        return
    e.emit(stage, done, total)

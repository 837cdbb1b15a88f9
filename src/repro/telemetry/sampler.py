"""Time-resolved resource sampling: RSS (and store state) as a curve.

``peak_rss_bytes`` reduces a whole run to one high-water number — good
for a gate, useless for understanding *when* memory moved.  The
:class:`ResourceSampler` is an opt-in background thread (the CLI's
``--sample-rss HZ``) that, on a fixed cadence, records

* the process's current ``VmRSS`` (from ``/proc/self/status``; falls
  back to the ``ru_maxrss`` high-water mark off-Linux, which is still
  monotone-informative),
* the name of the innermost open span of the installed tracer — each
  sample is *attributed* to the stage that was running,
* every registered **probe**: a named zero-argument callable returning
  a float.  The population store registers its materialised-block count
  here, so an out-of-core sweep's fault-in behaviour becomes a curve
  next to its RSS.

Samples are plain dicts kept in memory, bounded by ``max_samples`` via
stride doubling (when full, every other sample is dropped and the
cadence halves — the series keeps its full time extent at decaying
resolution, like a flight recorder).  They surface in the
``--metrics-out`` payload (``resource_samples``) and as counter tracks
in the Chrome-trace export; when a progress emitter is installed the
sampler also echoes a throttled ``sample`` event line (at most one per
``echo_interval_s``) so ``repro monitor`` can render a live RSS
sparkline from the events file alone.

:class:`EventLoopLagProbe` is the asyncio service's probe: a
cooperative coroutine that records how late the event loop woke it, so a
sampler running next to ``repro serve`` / ``repro loadgen`` turns loop
saturation into a counter track next to RSS.

The sampler mirrors the tracer's single-slot install discipline
(:func:`install_sampler` / :func:`uninstall_sampler`); with no sampler
installed nothing in the library changes behaviour — there are no
sampler hooks on any hot path, the thread *reads* shared state on its
own clock.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from . import events as _events_mod
from . import tracer as _tracer_mod
from .tracer import _rusage_peak_bytes

#: registered probes: name -> zero-arg callable returning a number.
#: Module-level (not per-sampler) so long-lived objects (stores) can
#: register at construction without knowing whether sampling is on.
_probes: Dict[str, Callable[[], float]] = {}


def register_probe(name: str, fn: Callable[[], float]) -> None:
    """Expose ``fn()`` as probe ``name`` on every sampler tick.

    Re-registering a name replaces the previous probe (last wins): the
    common case is a store re-attached at the same root.
    """
    _probes[name] = fn


def unregister_probe(name: str) -> None:
    """Remove probe ``name`` (no-op when absent)."""
    _probes.pop(name, None)


def current_rss_bytes(proc_status: str = "/proc/self/status") -> Optional[int]:
    """The process's *current* resident set in bytes, or a fallback.

    Linux: the ``VmRSS`` line of ``/proc/self/status``.  Elsewhere:
    ``ru_maxrss`` (the high-water mark — monotone, so the curve still
    shows growth, documented in the README's observability section).
    """
    try:
        with open(proc_status) as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return _rusage_peak_bytes()


class ResourceSampler:
    """Background thread sampling RSS + probes on a fixed cadence.

    Parameters
    ----------
    hz:
        Target sampling rate (ticks per second, > 0).
    max_samples:
        In-memory bound; on overflow the series is decimated 2:1 and the
        recording stride doubles, so memory stays bounded for any run
        length while the full time extent is preserved.
    echo_interval_s:
        Minimum spacing of ``sample`` event lines echoed through an
        installed progress emitter (the live feed ``repro monitor``
        tails); ``None`` disables echoing.
    """

    def __init__(
        self,
        hz: float = 4.0,
        *,
        max_samples: int = 4096,
        echo_interval_s: Optional[float] = 1.0,
    ):
        if not hz > 0.0:
            raise ValueError(f"hz must be positive, got {hz}")
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.hz = float(hz)
        self.interval_s = 1.0 / float(hz)
        self.max_samples = int(max_samples)
        self.echo_interval_s = echo_interval_s
        self.samples: List[Dict[str, Any]] = []
        self.n_ticks = 0
        self._stride = 1
        self._last_echo: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ---- one tick ----------------------------------------------------

    def sample_once(self) -> Dict[str, Any]:
        """Take one sample now (also the unit-testable tick body)."""
        tracer = _tracer_mod._active
        span = tracer.active_span if tracer is not None else None
        sample: Dict[str, Any] = {
            "t_ns": time.perf_counter_ns(),
            "rss_bytes": current_rss_bytes(),
            "span": span.name if span is not None else None,
        }
        probes: Dict[str, float] = {}
        for name, fn in list(_probes.items()):
            try:
                probes[name] = float(fn())
            except Exception:
                continue  # a dying probe must not kill the sampler
        if probes:
            sample["probes"] = probes
        self.n_ticks += 1
        if (self.n_ticks - 1) % self._stride == 0:
            self.samples.append(sample)
            if len(self.samples) >= self.max_samples:
                del self.samples[::2]
                self._stride *= 2
        self._echo(sample)
        return sample

    def _echo(self, sample: Dict[str, Any]) -> None:
        if self.echo_interval_s is None:
            return
        emitter = _events_mod._emitter
        if emitter is None:
            return
        now = time.monotonic()
        if (
            self._last_echo is not None
            and now - self._last_echo < self.echo_interval_s
        ):
            return
        self._last_echo = now
        try:
            emitter.lifecycle(
                "sample",
                rss_bytes=sample["rss_bytes"],
                span=sample["span"],
                **(sample.get("probes") or {}),
            )
        except Exception:
            pass  # a raising heartbeat must not kill the sampler thread

    # ---- thread lifecycle --------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread (idempotent); takes one final sample so even
        a sub-interval run records a non-empty series."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self.sample_once()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---- export ------------------------------------------------------

    def to_dicts(self, epoch_ns: Optional[int] = None) -> List[Dict[str, Any]]:
        """JSON-ready samples with timestamps relative to ``epoch_ns``
        (a tracer's ``perf0_ns``; defaults to the first sample)."""
        if not self.samples:
            return []
        if epoch_ns is None:
            epoch_ns = self.samples[0]["t_ns"]
        out = []
        for sample in self.samples:
            d: Dict[str, Any] = {
                "t_s": round((sample["t_ns"] - epoch_ns) / 1e9, 6),
                "rss_bytes": sample["rss_bytes"],
                "span": sample["span"],
            }
            if sample.get("probes"):
                d["probes"] = dict(sample["probes"])
            out.append(d)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResourceSampler hz={self.hz} samples={len(self.samples)} "
            f"stride={self._stride}>"
        )


class EventLoopLagProbe:
    """Event-loop scheduling delay as a sampler probe.

    A cooperative coroutine sleeps ``interval_s`` and measures how much
    *later* than requested the loop woke it; that excess is the time the
    loop spent unable to schedule ready callbacks — the canonical
    saturation signal for an asyncio service.  The most recent lag (ms)
    is exposed through :func:`register_probe` under ``name``, so an
    active :class:`ResourceSampler` records it as a time series (and the
    Chrome export as a counter track) without the probe knowing whether
    anyone is listening.

    Use as an async context manager around the serving block::

        async with EventLoopLagProbe() as probe:
            await run_loadgen(...)
        print(probe.max_lag_ms)
    """

    def __init__(self, interval_s: float = 0.02, name: str = "loop_lag_ms"):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self.name = name
        self.lag_ms = 0.0
        self.max_lag_ms = 0.0
        self.n_ticks = 0
        self._task: Optional[Any] = None

    async def _run(self) -> None:
        import asyncio

        while True:
            t0 = time.perf_counter()
            await asyncio.sleep(self.interval_s)
            lag_s = (time.perf_counter() - t0) - self.interval_s
            self.lag_ms = max(0.0, lag_s * 1e3)
            self.max_lag_ms = max(self.max_lag_ms, self.lag_ms)
            self.n_ticks += 1

    def start(self) -> "EventLoopLagProbe":
        """Register the probe and start its loop task (idempotent)."""
        import asyncio

        if self._task is None:
            register_probe(self.name, lambda: self.lag_ms)
            self._task = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        """Cancel the loop task and unregister the probe (idempotent)."""
        import asyncio

        task, self._task = self._task, None
        if task is None:
            return
        unregister_probe(self.name)
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    async def __aenter__(self) -> "EventLoopLagProbe":
        return self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()


# ----------------------------------------------------------------------
# the installed-sampler slot (mirrors the tracer/emitter discipline)
# ----------------------------------------------------------------------

_sampler: Optional[ResourceSampler] = None


def install_sampler(sampler: ResourceSampler) -> ResourceSampler:
    """Install (without starting) ``sampler`` as the process sampler."""
    global _sampler
    if _sampler is not None:
        raise RuntimeError("a sampler is already installed; uninstall first")
    _sampler = sampler
    return sampler


def uninstall_sampler() -> Optional[ResourceSampler]:
    """Stop, remove and return the installed sampler (no-op when off)."""
    global _sampler
    sampler, _sampler = _sampler, None
    if sampler is not None:
        sampler.stop()
    return sampler


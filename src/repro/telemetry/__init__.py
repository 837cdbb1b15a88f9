"""repro.telemetry — tracing, metrics, manifests, ledger and heartbeats.

The package itself exports only the instrumentation API the library's
call sites use as ``telemetry.<name>``: the single-branch hooks
(:func:`start_span` / :func:`end_span` / :func:`span` / :func:`count` /
:func:`observe` / :func:`progress`), the installed-tracer slot
(:func:`active`, :func:`enabled`, :func:`install`, :func:`uninstall`,
:func:`session`) and :class:`Tracer` / :class:`Span`.  With no tracer or
emitter installed each hook is one attribute load and one branch.
Everything else is imported from its module, so a command loads only
the modules it uses:

* :mod:`.tracer` — spans, counters, histograms, request lanes, peak RSS;
* :mod:`.histogram` — mergeable log-bucket latency distributions;
* :mod:`.export` — the ``--trace`` terminal views and ``--metrics-out``;
* :mod:`.chrome` — the ``--trace-out`` Chrome ``trace_event`` export;
* :mod:`.sampler` — ``--sample-rss`` RSS/probe sampling, event-loop lag;
* :mod:`.events` — ``--events`` JSONL progress heartbeats;
* :mod:`.monitor` — the ``repro monitor`` dashboard over an events file;
* :mod:`.manifest` — the run manifest (seed, config, versions, host);
* :mod:`.jsonl` — the one torn-tail-safe JSONL append/read;
* :mod:`.ledger` — the run/perf ledger (``--ledger``, ``REPRO_PERF_LEDGER``);
* :mod:`.anchors` — the paper's anchor bands (``repro check-anchors``);
* :mod:`.history` / :mod:`.changepoint` — ledger trends and the
  median+MAD verdicts of ``repro history`` and ``repro perf``;
* :mod:`.red` — per-endpoint rate/error/duration metrics of the service.

Enable collection with::

    from repro import telemetry
    from repro.telemetry.export import render_span_tree

    with telemetry.session() as tracer:
        study.responses(t_years=10.0)
        print(render_span_tree(tracer))
        print(tracer.counters)
"""

from .events import progress
from .tracer import (
    Span,
    Tracer,
    active,
    count,
    enabled,
    end_span,
    install,
    observe,
    session,
    span,
    start_span,
    uninstall,
)

__all__ = [
    "Span",
    "Tracer",
    "active",
    "count",
    "enabled",
    "end_span",
    "install",
    "observe",
    "progress",
    "session",
    "span",
    "start_span",
    "uninstall",
]

"""repro.telemetry — tracing, metrics, manifests, ledger and heartbeats.

A zero-dependency observability stack for the Monte-Carlo engine, in two
layers:

**In-run** (one process, one invocation):

* :class:`Tracer` / :class:`Span` — nestable wall-time (and optional
  memory) spans with typed counters and gauges.  The active span is
  context-local, so it propagates through ``await`` and task fan-out;
  :meth:`Tracer.request` gives each served request a root span with a
  trace id (:func:`current_trace_id`), parked on a recycled ``req-<k>``
  Chrome-trace lane when it finishes (``repro serve`` / ``repro
  loadgen``);
* :class:`RunManifest` — the provenance tuple (seed, config, package
  version, git SHA, numpy/platform versions) attached to every artefact;
* :class:`ProgressEmitter` / :func:`progress` — throttled JSONL
  heartbeats (stage, items done, ETA) from the batched kernels, the
  CLI's ``--events PATH``;
* :func:`render_span_tree` / :func:`write_metrics` — terminal and JSON
  exports, consumed by ``--trace`` / ``--metrics-out``;
* :class:`Histogram` / :func:`observe` — streaming log-bucket latency
  distributions (p50/p95/p99 within a documented <= 5 % bucket error),
  mergeable across parallel workers;
* :func:`write_chrome_trace` — Chrome ``trace_event`` export
  (``--trace-out``): the run as a Perfetto timeline, one lane per
  worker shard, aligned by a perf-counter clock handshake;
* :class:`ResourceSampler` — opt-in background RSS/probe sampling
  (``--sample-rss HZ``), each tick attributed to the open span;
  :class:`EventLoopLagProbe` adds event-loop scheduling delay as a
  probe (a counter track next to RSS when serving);
* :func:`parse_events` / :func:`render_monitor` — the ``repro monitor``
  dashboard over an events JSONL, live or post-hoc;
* :class:`RedMetrics` — per-endpoint rate / error-taxonomy / duration
  aggregation for the fleet service, flattened into the scalar map the
  SLO spec (:mod:`repro.service.slo`) gates.

**Across runs** (the longitudinal layer):

* :class:`Ledger` / :class:`LedgerEntry` — one append-only JSONL
  ledger of ``run`` entries (every experiment's headline scalars, keyed
  by the manifest; ``--ledger PATH``) and ``perf`` entries (every
  benchmark run's throughput / wall / RSS / p50/p99, keyed
  ``git_sha:host-fingerprint:bench-id``; ``repro perf``,
  ``REPRO_PERF_LEDGER``), written and read through :mod:`.jsonl`, the
  package's one torn-tail-safe JSONL append/read;
* :data:`PAPER_ANCHORS` / :func:`check_anchors` — the paper abstract's
  quantitative claims as a declarative registry with pass/warn/fail
  tolerance bands (``repro check-anchors``, ``tools/check_anchors.py``);
* :func:`render_history` — per-metric trends over a ledger with
  sparklines and median+MAD movement verdicts (``repro history``,
  ``repro perf history``);
* :func:`detect` / :func:`classify` — median+MAD change-point verdicts
  with a documented noise model and warm-up (``repro perf gate``,
  ``repro history``);
* :func:`aggregate` / :func:`critical_path` / :func:`collapsed_stacks`
  — span-forest attribution: self-time tables, the wall-clock-bounding
  span chain across lanes, and flamegraph.pl/speedscope collapsed
  stacks (``repro perf flame``).

The library is instrumented through the module-level single-branch API
(:func:`start_span` / :func:`end_span` / :func:`count` / :func:`gauge` /
:func:`progress`): with no tracer or emitter installed these are one
attribute load and one branch, so the instrumented kernels stay within
the <2 % overhead budget measured by ``benchmarks/bench_population.py``.
Enable collection with::

    from repro import telemetry

    with telemetry.session() as tracer:
        study.responses(t_years=10.0)
        print(telemetry.render_span_tree(tracer))
        print(tracer.counters)
"""

from .manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    execution_fields,
    git_sha,
    host_fingerprint,
    package_version,
    platform_triple,
    validate_manifest,
)
from .tracer import (
    Span,
    Tracer,
    active,
    clock_handshake,
    count,
    current_trace_id,
    enabled,
    end_span,
    gauge,
    install,
    observe,
    peak_rss_bytes,
    session,
    span,
    start_span,
    uninstall,
)
from .histogram import (
    GROWTH,
    QUANTILE_RELATIVE_ERROR,
    Histogram,
    flatten_summaries,
    summarise,
)
from .export import (
    METRICS_FORMAT,
    render_counters,
    render_histograms,
    render_span_tree,
    trace_to_dict,
    write_metrics,
)
from .chrome import (
    MAIN_TID,
    TRACE_PID,
    chrome_trace_dict,
    chrome_trace_events,
    write_chrome_trace,
)
from .sampler import (
    EventLoopLagProbe,
    ResourceSampler,
    active_sampler,
    current_rss_bytes,
    install_sampler,
    register_probe,
    sampler_session,
    uninstall_sampler,
    unregister_probe,
)
from .red import (
    ERROR_CLASSES,
    NON_ERROR_OUTCOMES,
    RED_FORMAT,
    SLO_QUANTILES,
    RedMetrics,
)
from .monitor import MonitorState, StageProgress, parse_events, render_monitor
from .events import (
    EVENTS_FORMAT,
    ProgressEmitter,
    active_emitter,
    emitter_session,
    install_emitter,
    progress,
    uninstall_emitter,
)
from .ledger import (
    LEDGER_FORMAT,
    PERF_LEDGER_ENV,
    Ledger,
    LedgerEntry,
    entry_from_bench_payload,
    entry_from_metrics_payload,
    metric_series,
)
from .anchors import (
    ANCHOR_EXPERIMENTS,
    Anchor,
    AnchorVerdict,
    PAPER_ANCHORS,
    check_anchors,
    latest_scalars,
    render_verdicts,
    worst_status,
)
from .history import TrendRow, history_rows, render_history, sparkline
from .changepoint import (
    ChangePoint,
    MAD_CONSISTENCY,
    MIN_HISTORY,
    classify,
    detect,
    metric_orientation,
)
from .report import render_perf_report, write_perf_report
from .profile import (
    PathSegment,
    ProfileRow,
    aggregate,
    collapsed_stacks,
    critical_path,
    lanes_from_chrome_trace,
    lanes_from_tracer,
    render_collapsed,
    render_critical_path,
    render_profile,
    write_collapsed,
)

__all__ = [
    "ANCHOR_EXPERIMENTS",
    "Anchor",
    "AnchorVerdict",
    "ChangePoint",
    "ERROR_CLASSES",
    "EventLoopLagProbe",
    "EVENTS_FORMAT",
    "GROWTH",
    "Histogram",
    "LEDGER_FORMAT",
    "Ledger",
    "LedgerEntry",
    "MAD_CONSISTENCY",
    "MANIFEST_SCHEMA",
    "METRICS_FORMAT",
    "MIN_HISTORY",
    "MonitorState",
    "NON_ERROR_OUTCOMES",
    "PAPER_ANCHORS",
    "PERF_LEDGER_ENV",
    "PathSegment",
    "ProfileRow",
    "ProgressEmitter",
    "QUANTILE_RELATIVE_ERROR",
    "RED_FORMAT",
    "RedMetrics",
    "ResourceSampler",
    "RunManifest",
    "SLO_QUANTILES",
    "Span",
    "StageProgress",
    "Tracer",
    "TrendRow",
    "active",
    "aggregate",
    "active_emitter",
    "active_sampler",
    "check_anchors",
    "MAIN_TID",
    "TRACE_PID",
    "chrome_trace_dict",
    "chrome_trace_events",
    "classify",
    "clock_handshake",
    "collapsed_stacks",
    "count",
    "critical_path",
    "current_rss_bytes",
    "current_trace_id",
    "detect",
    "emitter_session",
    "enabled",
    "end_span",
    "entry_from_bench_payload",
    "entry_from_metrics_payload",
    "execution_fields",
    "flatten_summaries",
    "gauge",
    "git_sha",
    "history_rows",
    "host_fingerprint",
    "install",
    "lanes_from_chrome_trace",
    "lanes_from_tracer",
    "install_emitter",
    "install_sampler",
    "latest_scalars",
    "metric_orientation",
    "metric_series",
    "observe",
    "package_version",
    "parse_events",
    "peak_rss_bytes",
    "platform_triple",
    "progress",
    "register_probe",
    "render_collapsed",
    "render_counters",
    "render_critical_path",
    "render_histograms",
    "render_history",
    "render_monitor",
    "render_perf_report",
    "render_profile",
    "render_span_tree",
    "render_verdicts",
    "sampler_session",
    "session",
    "span",
    "sparkline",
    "start_span",
    "summarise",
    "trace_to_dict",
    "uninstall",
    "uninstall_emitter",
    "uninstall_sampler",
    "unregister_probe",
    "validate_manifest",
    "worst_status",
    "write_chrome_trace",
    "write_collapsed",
    "write_metrics",
    "write_perf_report",
]

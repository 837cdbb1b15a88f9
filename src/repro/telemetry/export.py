"""Trace export: span trees for humans, spans+counters+manifest for tools.

Two consumers, two formats:

* :func:`render_span_tree` — the ``--trace`` terminal view: an indented
  tree with per-span wall time, share of the parent, and the hottest
  attributes;
* :func:`trace_to_dict` / :func:`write_metrics` — the ``--metrics-out``
  artefact: one JSON object holding the nested spans, the counter map,
  the histograms and the :class:`~repro.telemetry.manifest.RunManifest`,
  validated by the same schema CI's smoke step checks.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Union

from .manifest import RunManifest, package_version
from .tracer import Span, Tracer

PathLike = Union[str, pathlib.Path]

#: format version of the --metrics-out payload, bumped on layout changes
#: (2: top-level ``version`` string alongside the manifest, so payloads
#: remain attributable even when filtered down to one section; 3: adds
#: the ``histograms`` section — full mergeable bucket state per metric —
#: and, when a resource sampler ran, ``resource_samples``; 4: drops the
#: ``gauges`` section, which no call site ever filled)
METRICS_FORMAT = 4


def _fmt_duration(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:8.3f} s "
    if ns >= 1_000_000:
        return f"{ns / 1e6:8.3f} ms"
    return f"{ns / 1e3:8.3f} us"


def _render_span(
    span: Span, lines: List[str], indent: int, parent_ns: Optional[int]
) -> None:
    dur = span.duration_ns
    share = ""
    if parent_ns:
        share = f" ({100.0 * dur / parent_ns:5.1f}%)"
    attrs = ""
    if span.attrs:
        inner = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
        attrs = f"  [{inner}]"
    lines.append(
        f"{_fmt_duration(dur)}{share:>9}  {'  ' * indent}{span.name}{attrs}"
    )
    for child in span.children:
        _render_span(child, lines, indent + 1, dur)


def render_span_tree(tracer: Tracer) -> str:
    """The indented per-span wall-time tree ``--trace`` prints."""
    lines: List[str] = []
    for root in tracer.roots:
        _render_span(root, lines, 0, None)
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)


def render_counters(tracer: Tracer) -> str:
    """Counters as aligned ``name  value`` rows."""
    rows = sorted(tracer.counters.items())
    if not rows:
        return "(no counters recorded)"
    width = max(len(name) for name, _ in rows)
    return "\n".join(
        f"{name:<{width}}  {value:>14g}  (counter)" for name, value in rows
    )


def render_histograms(tracer: Tracer) -> str:
    """Histogram summaries as aligned quantile rows (the ``--trace``
    terminal view's distribution table)."""
    summaries = tracer.histogram_summaries()
    if not summaries:
        return "(no histograms recorded)"
    width = max(len(name) for name in summaries)
    header = (
        f"{'name':<{width}}  {'count':>8}  {'p50':>10}  {'p95':>10}  "
        f"{'p99':>10}  {'max':>10}"
    )
    rows = [header]
    for name, summary in summaries.items():
        rows.append(
            f"{name:<{width}}  {summary['count']:>8.0f}  "
            f"{summary['p50']:>10.3g}  {summary['p95']:>10.3g}  "
            f"{summary['p99']:>10.3g}  {summary['max']:>10.3g}"
        )
    return "\n".join(rows)


def trace_to_dict(
    tracer: Tracer,
    manifest: Optional[RunManifest] = None,
    sampler: Optional[Any] = None,
) -> Dict[str, Any]:
    """The complete ``--metrics-out`` payload as a JSON-ready dict."""
    payload: Dict[str, Any] = {
        "format": METRICS_FORMAT,
        "version": package_version(),
        "spans": [root.to_dict() for root in tracer.roots],
        "counters": dict(sorted(tracer.counters.items())),
        "histograms": {
            name: tracer.histograms[name].to_dict()
            for name in sorted(tracer.histograms)
        },
    }
    rss = tracer.peak_rss_kb()
    if rss is not None:
        payload["peak_rss_kb"] = rss
    if sampler is not None:
        payload["resource_samples"] = sampler.to_dicts(tracer.perf0_ns)
    if manifest is not None:
        payload["manifest"] = manifest.to_dict()
    return payload


def write_metrics(
    path: PathLike,
    tracer: Tracer,
    manifest: Optional[RunManifest] = None,
    sampler: Optional[Any] = None,
) -> pathlib.Path:
    """Write the spans+counters+manifest artefact to ``path`` (JSON)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = trace_to_dict(tracer, manifest, sampler)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path

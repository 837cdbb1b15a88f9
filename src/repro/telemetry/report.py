"""Static perf report: one self-contained HTML file, zero dependencies.

``repro perf report --html`` renders the perf ledger's trend rows
(:func:`~repro.telemetry.history.history_rows`, the verdicts every
``repro perf`` view shares) and optionally a trace artefact into a
single file that opens anywhere — no JS frameworks, no external
assets, sparklines as inline SVG polylines.
One file per report on purpose: the artefact gets attached to CI runs
and mailed around, so it must survive without its neighbours.
"""

from __future__ import annotations

import datetime
import html
import pathlib
from typing import List, Optional, Sequence, Union

from . import changepoint
from .history import TrendRow
from .manifest import host_fingerprint, package_version, platform_triple
from .profile import Lanes, aggregate, critical_path

PathLike = Union[str, pathlib.Path]

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { text-align: left; padding: 0.3rem 0.6rem;
         border-bottom: 1px solid #e0e0e8; }
th { background: #f4f4f8; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.regress { color: #c0392b; font-weight: 600; }
.improve { color: #1e8449; font-weight: 600; }
.warmup, .stable, .shift { color: #707080; }
svg.spark { vertical-align: middle; }
footer { margin-top: 3rem; font-size: 0.75rem; color: #707080; }
"""


def _spark_svg(values: Sequence[float], width: int = 120, height: int = 24) -> str:
    """An inline SVG polyline sparkline over ``values``."""
    if not values:
        return ""
    if len(values) == 1:
        values = list(values) * 2
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 2
    n = len(values)
    points = " ".join(
        f"{pad + i * (width - 2 * pad) / (n - 1):.1f},"
        f"{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline points="{points}" fill="none" '
        f'stroke="#3456a0" stroke-width="1.5"/></svg>'
    )


def _fmt(value: Optional[float]) -> str:
    return "–" if value is None else f"{value:.4g}"


def _trend_section(rows: Sequence[TrendRow]) -> List[str]:
    parts = ["<h2>Perf-ledger trends</h2>"]
    if not rows:
        parts.append("<p>(empty perf ledger)</p>")
        return parts
    parts.append(
        "<table><tr><th>metric</th><th>trend</th>"
        '<th class="num">runs</th><th class="num">latest</th>'
        '<th class="num">median</th><th class="num">change</th>'
        "<th>verdict</th></tr>"
    )
    for row in rows:
        point = row.point
        change = "–" if point.change is None else f"{point.change:+.1%}"
        verdict = html.escape(row.verdict)
        parts.append(
            f"<tr><td>{html.escape(row.metric)}</td>"
            f"<td>{_spark_svg(row.values)}</td>"
            f'<td class="num">{row.n_runs}</td>'
            f'<td class="num">{_fmt(point.latest)}</td>'
            f'<td class="num">{_fmt(point.median)}</td>'
            f'<td class="num">{change}</td>'
            f'<td class="{verdict}">{verdict}</td>'
            "</tr>"
        )
    parts.append("</table>")
    return parts


def _attribution_section(lanes: Lanes, top: int = 20) -> List[str]:
    parts = ["<h2>Self-time attribution</h2>"]
    rows = aggregate(lanes)
    if not rows:
        parts.append("<p>(no spans in trace)</p>")
        return parts
    parts.append(
        "<table><tr><th>label</th>"
        '<th class="num">self (s)</th><th class="num">total (s)</th>'
        '<th class="num">calls</th></tr>'
    )
    for row in rows[:top]:
        parts.append(
            f"<tr><td>{html.escape(row.label)}</td>"
            f'<td class="num">{row.self_s:.3f}</td>'
            f'<td class="num">{row.total_s:.3f}</td>'
            f'<td class="num">{row.calls}</td></tr>'
        )
    parts.append("</table>")
    segments = critical_path(lanes)
    if segments:
        total_ns = sum(s.duration_ns for s in segments) or 1
        parts.append(
            f"<h2>Critical path ({total_ns / 1e9:.3f} s covered)</h2>"
        )
        parts.append(
            "<table><tr><th>lane</th><th>label</th>"
            '<th class="num">duration (s)</th><th class="num">share</th></tr>'
        )
        for seg in segments:
            parts.append(
                f"<tr><td>{html.escape(seg.lane)}</td>"
                f"<td>{html.escape(seg.label)}</td>"
                f'<td class="num">{seg.duration_s:.3f}</td>'
                f'<td class="num">'
                f"{100.0 * seg.duration_ns / total_ns:.1f}%</td></tr>"
            )
        parts.append("</table>")
    return parts


def render_perf_report(
    rows: Sequence[TrendRow], *, lanes: Optional[Lanes] = None
) -> str:
    """The complete report as an HTML string.

    ``rows`` are :func:`~repro.telemetry.history.history_rows` over perf
    entries, the verdicts ``repro perf history`` and ``repro perf gate``
    print.
    """
    created = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>repro perf report</title>",
        f"<style>{_STYLE}</style></head><body>",
        "<h1>repro performance report</h1>",
        f"<p>generated {html.escape(created)} · "
        f"repro {html.escape(package_version())} · "
        f"{html.escape(platform_triple())} · "
        f"host {html.escape(host_fingerprint())}</p>",
    ]
    parts.extend(_trend_section(rows))
    if lanes is not None:
        parts.extend(_attribution_section(lanes))
    parts.append(
        "<footer>verdicts: median+MAD change-point detection "
        f"(window {changepoint.DEFAULT_WINDOW}, "
        f"warm-up {changepoint.MIN_HISTORY} runs); "
        "see docs/observability.md</footer>"
    )
    parts.append("</body></html>")
    return "\n".join(parts)


def write_perf_report(
    path: PathLike,
    rows: Sequence[TrendRow],
    *,
    lanes: Optional[Lanes] = None,
) -> pathlib.Path:
    """Write the report to ``path`` and return it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_perf_report(rows, lanes=lanes))
    return path

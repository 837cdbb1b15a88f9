"""Plain-text table/series rendering for the experiment tables.

``repro run`` prints paper-style rows; these helpers keep the formatting in
one place (fixed-width ASCII so output diffs cleanly run to run).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .sweep import Series


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render rows as a fixed-width ASCII table."""
    str_rows: List[List[str]] = [
        [_fmt(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    series: Sequence[Series],
    x_label: str = "x",
    y_label: str = "y",
    title: Optional[str] = None,
) -> str:
    """Render one or more aligned series as a table (shared x column)."""
    if not series:
        raise ValueError("need at least one series")
    xs = series[0].x
    for s in series[1:]:
        if s.x != xs:
            raise ValueError(
                f"series {s.name!r} has a different x axis than {series[0].name!r}"
            )
    headers = [x_label] + [f"{s.name} ({y_label})" for s in series]
    rows = [
        [x] + [s.y[i] for s in series]
        for i, x in enumerate(xs)
    ]
    return format_table(headers, rows, title=title)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) >= 1e5 or abs(cell) < 1e-3):
            return f"{cell:.3e}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)

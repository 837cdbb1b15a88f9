"""One-shot report generation: every experiment into a single Markdown file.

``python -m repro.cli report`` runs the requested experiments (plus E2
and E3, which the anchor table reads) once each, and
:func:`generate_report` renders their results as a self-contained
Markdown report: a summary table against the paper's anchors followed by
every regenerated table.  This is the artefact to attach to a
reproduction claim.
"""

from __future__ import annotations

import pathlib
from typing import Any, Mapping, Optional, Sequence, Union

from . import experiments as exp
from .render import EXPERIMENTS, PAPER

PathLike = Union[str, pathlib.Path]

#: experiments the anchor table reads, whatever the report's sections
ANCHOR_TABLE_EXPERIMENTS = ("e2", "e3")


def _anchor_summary(results: Mapping[str, Any]) -> str:
    """The abstract's four anchors, as measured by E2 and E3."""
    final = results["e2"].at_ten_years()
    uniq = results["e3"].reports
    rows = (
        ("conventional bits flipped @ 10 y", "", "conv_flips_10y", final["ro-puf"]),
        ("ARO bits flipped @ 10 y", "", "aro_flips_10y", final["aro-puf"]),
        ("conventional inter-chip HD", "~", "conv_hd", uniq["ro-puf"].percent()),
        ("ARO inter-chip HD", "", "aro_hd", uniq["aro-puf"].percent()),
    )
    lines = ["| Anchor | Paper | Measured |", "|--------|-------|----------|"]
    for label, about, paper, measured in rows:
        lines.append(f"| {label} | {about}{PAPER[paper]:g} % | {measured:.2f} % |")
    return "\n".join(lines)


def generate_report(
    config: exp.ExperimentConfig,
    results: Mapping[str, Any],
    experiments: Sequence[str],
    path: Optional[PathLike] = None,
) -> str:
    """Render already-computed experiment results as the Markdown report;
    returns the text and, given ``path``, also writes it there.

    ``results`` maps experiment ids to their result objects and must
    hold E2 and E3 (:data:`ANCHOR_TABLE_EXPERIMENTS`).  ``experiments``
    picks the sections, in order; ``config`` only names the scale in the
    header.
    """
    missing = [
        e for e in (*ANCHOR_TABLE_EXPERIMENTS, *experiments) if e not in results
    ]
    if missing:
        raise ValueError(f"no result for experiments: {missing}")

    sections = [
        "# ARO-PUF reproduction report",
        "",
        f"Monte-Carlo scale: {config.n_chips} chips x {config.n_ros} ROs, "
        f"seed {config.seed}.",
        "",
        "## Paper anchors",
        "",
        _anchor_summary(results),
    ]
    for key in experiments:
        spec = EXPERIMENTS[key]
        sections.append("")
        sections.append(f"## {key.upper()} — {spec.description}")
        sections.append("")
        sections.append("```")
        sections.append(spec.render(results[key]))
        sections.append("```")
    text = "\n".join(sections) + "\n"
    if path is not None:
        pathlib.Path(path).write_text(text)
    return text

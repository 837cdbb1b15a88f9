"""One-shot report generation: every experiment into a single Markdown file.

``python -m repro.cli report`` (or :func:`generate_report`) reruns the
requested experiments at the requested Monte-Carlo scale and writes a
self-contained Markdown report: a summary table against the paper's
anchors followed by every regenerated table.  This is the artefact to
attach to a reproduction claim.
"""

from __future__ import annotations

import pathlib
from typing import List, Optional, Sequence, Union

from . import experiments as exp

PathLike = Union[str, pathlib.Path]

#: default experiment set for a report (all of them)
ALL_EXPERIMENTS = (
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "e8",
    "e9",
    "e10",
    "e11",
    "e12",
    "e13",
)


def _anchor_summary(config: exp.ExperimentConfig) -> str:
    """The abstract's four anchors, measured fresh at the report's scale."""
    flips = exp.aging_bitflips(config, years=(10.0,))
    uniq = exp.uniqueness_experiment(config)
    final = {name: s.y_at(10.0) for name, s in flips.series.items()}
    lines = [
        "| Anchor | Paper | Measured |",
        "|--------|-------|----------|",
        f"| conventional bits flipped @ 10 y | 32 % | {final['ro-puf']:.2f} % |",
        f"| ARO bits flipped @ 10 y | 7.7 % | {final['aro-puf']:.2f} % |",
        f"| conventional inter-chip HD | ~45 % | {uniq.reports['ro-puf'].percent():.2f} % |",
        f"| ARO inter-chip HD | 49.67 % | {uniq.reports['aro-puf'].percent():.2f} % |",
    ]
    return "\n".join(lines)


def generate_report(
    config: Optional[exp.ExperimentConfig] = None,
    experiments: Sequence[str] = ALL_EXPERIMENTS,
    path: Optional[PathLike] = None,
    ledger=None,
    manifest=None,
) -> str:
    """Run the selected experiments and return (and optionally write) the
    Markdown report.

    When a :class:`~repro.telemetry.Ledger` is passed, every
    experiment's headline scalars are appended to it (sharing
    ``manifest``, collected once by the caller) — one report run becomes
    one longitudinal data point per experiment.
    """
    from ..cli import EXPERIMENTS as RUNNERS

    config = config or exp.ExperimentConfig()
    unknown = [e for e in experiments if e not in RUNNERS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}")

    sections: List[str] = [
        "# ARO-PUF reproduction report",
        "",
        f"Monte-Carlo scale: {config.n_chips} chips x {config.n_ros} ROs, "
        f"seed {config.seed}.",
        "",
        "## Paper anchors",
        "",
        _anchor_summary(config),
    ]
    for key in experiments:
        spec = RUNNERS[key]
        result = spec.run(config)
        if ledger is not None:
            ledger.record(key, result.ledger_scalars(), manifest)
        sections.append("")
        sections.append(f"## {key.upper()} — {spec.description}")
        sections.append("")
        sections.append("```")
        sections.append(spec.render(result))
        sections.append("```")
    text = "\n".join(sections) + "\n"
    if path is not None:
        pathlib.Path(path).write_text(text)
    return text

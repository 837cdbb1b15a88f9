"""Paper anchors: the abstract's numbers as a declarative, checkable registry.

The source abstract pins this reproduction to a handful of quantitative
claims — 32 % of conventional RO-PUF response bits flip after ten years
of aging versus 7.7 % for the ARO-PUF, and the ARO's inter-chip Hamming
distance is 49.67 % (conventional ~45 %).  Refactors of the aging and
population kernels can bend these numbers *silently*: every individual
run still looks plausible, only the comparison against the paper (or
against last month's ledger) exposes the drift.

:data:`PAPER_ANCHORS` declares each claim once — metric key, paper
value, a *pass* tolerance and a *fail* tolerance — and
:func:`check_anchors` turns any flat scalar mapping (one run's merged
ledger scalars) into per-anchor verdicts:

* ``pass``  — within ``tol_pass`` of the paper value;
* ``warn``  — outside pass but within ``tol_fail`` (expected for
  scale-sensitive statistics at reduced Monte-Carlo scale, see each
  anchor's note);
* ``fail``  — outside ``tol_fail``: the reproduction no longer supports
  the paper's claim;
* ``missing`` — the ledger never recorded the metric.

Consumed by ``repro check-anchors``, which runs the anchor experiments
fresh or, with ``--from-ledger``, gates CI on an existing ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from .ledger import LedgerEntry

#: status values ordered from best to worst (worst_status uses the order)
STATUS_ORDER = ("pass", "warn", "fail")


@dataclass(frozen=True)
class Anchor:
    """One quantitative claim of the paper, with tolerance bands."""

    name: str
    #: flattened ledger metric key: ``<experiment id>.<scalar key>``
    metric: str
    paper_value: float
    #: absolute deviation still counting as a reproduction match
    tol_pass: float
    #: absolute deviation beyond which the claim is contradicted
    tol_fail: float
    unit: str = "%"
    #: which experiment produces the metric (for actionable messages)
    experiment: str = ""
    note: str = ""

    def __post_init__(self):
        if self.tol_pass <= 0 or self.tol_fail <= 0:
            raise ValueError(f"anchor {self.name!r}: tolerances must be positive")
        if self.tol_fail < self.tol_pass:
            raise ValueError(
                f"anchor {self.name!r}: tol_fail must be >= tol_pass"
            )

    def judge(self, measured: float) -> str:
        """pass / warn / fail for one measured value."""
        deviation = abs(measured - self.paper_value)
        if deviation <= self.tol_pass:
            return "pass"
        if deviation <= self.tol_fail:
            return "warn"
        return "fail"


@dataclass(frozen=True)
class AnchorVerdict:
    """One anchor's outcome against one run's scalars."""

    anchor: Anchor
    measured: Optional[float]
    status: str

    @property
    def deviation(self) -> Optional[float]:
        if self.measured is None:
            return None
        return self.measured - self.anchor.paper_value


#: The registry.  Tolerances are set from the measured spread of the
#: seeded reference config (50 chips x 256 ROs, see EXPERIMENTS.md) and
#: from the reduced-scale sweeps CI runs; scale-sensitive statistics get
#: a wide warn band and a note saying why.
PAPER_ANCHORS: Sequence[Anchor] = (
    Anchor(
        name="conventional-flips-10y",
        metric="e2.ro-puf.flips_at_10y_pct",
        paper_value=32.0,
        tol_pass=4.0,
        tol_fail=8.0,
        experiment="e2",
        note="abstract: 32% of conventional RO-PUF bits flip after 10 years",
    ),
    Anchor(
        name="aro-flips-10y",
        metric="e2.aro-puf.flips_at_10y_pct",
        paper_value=7.7,
        tol_pass=2.5,
        tol_fail=5.0,
        experiment="e2",
        note="abstract: 7.7% of ARO-PUF bits flip after 10 years",
    ),
    Anchor(
        name="aging-improvement-10y",
        metric="e2.improvement_factor_10y",
        paper_value=4.16,
        tol_pass=1.5,
        tol_fail=2.6,
        unit="x",
        experiment="e2",
        note="derived: 32/7.7 ~ 4.2x fewer flips for the ARO design",
    ),
    Anchor(
        name="conventional-uniqueness",
        metric="e3.ro-puf.uniqueness_pct",
        paper_value=45.0,
        tol_pass=2.5,
        tol_fail=8.0,
        experiment="e3",
        note=(
            "abstract: ~45% inter-chip HD; scale-sensitive (systematic "
            "layout averaging needs >=25 chips x 128 ROs, warn below)"
        ),
    ),
    Anchor(
        name="aro-uniqueness",
        metric="e3.aro-puf.uniqueness_pct",
        paper_value=49.67,
        tol_pass=2.0,
        tol_fail=5.0,
        experiment="e3",
        note="abstract: 49.67% inter-chip HD for the ARO-PUF",
    ),
    Anchor(
        name="aro-uniformity",
        metric="e4.aro-puf.uniformity_pct",
        paper_value=50.0,
        tol_pass=4.0,
        tol_fail=10.0,
        experiment="e4",
        note="ideal balanced response; the ARO's symmetric cell should hold it",
    ),
    # Forecast-quality warn bands (not paper numbers): the enrolment-time
    # at-risk forecast must keep catching the bits that actually flip by
    # 10 years.  Encoded against an ideal of 1.0 with a one-sided band —
    # recall cannot exceed 1 — so >=0.8 passes, >=0.65 warns, below fails.
    Anchor(
        name="conventional-forecast-recall",
        metric="e13.ro-puf.forecast_recall",
        paper_value=1.0,
        tol_pass=0.2,
        tol_fail=0.35,
        experiment="e13",
        note=(
            "gate (ours, not the paper's): enrolment margin forecast catches "
            ">=80% of actual 10-year flips on the seeded run"
        ),
    ),
    Anchor(
        name="aro-forecast-recall",
        metric="e13.aro-puf.forecast_recall",
        paper_value=1.0,
        tol_pass=0.2,
        tol_fail=0.35,
        experiment="e13",
        note=(
            "gate (ours, not the paper's): enrolment margin forecast catches "
            ">=80% of actual 10-year flips on the seeded run"
        ),
    ),
)


def _by_design(*names: str) -> Dict[str, float]:
    """The named anchors' paper values, keyed by their metric's design."""
    return {
        a.metric.split(".")[1]: a.paper_value for a in PAPER_ANCHORS if a.name in names
    }


#: the paper's 10-year response flip rates, percent, by design
DESIGN_FLIPS_10Y = _by_design("conventional-flips-10y", "aro-flips-10y")

#: the paper's inter-chip Hamming distances, percent, by design
DESIGN_UNIQUENESS = _by_design("conventional-uniqueness", "aro-uniqueness")

#: experiments a fresh anchor check has to run (the registry's sources)
ANCHOR_EXPERIMENTS = tuple(
    dict.fromkeys(a.experiment for a in PAPER_ANCHORS if a.experiment)
)


def latest_scalars(entries: Sequence[LedgerEntry]) -> Dict[str, float]:
    """Merge ledger entries into one flat ``{"<exp>.<key>": value}`` map.

    Entries are applied in file order, so the *latest* recording of each
    metric wins — checking a ledger checks the most recent run of each
    experiment, which is what a CI gate wants.
    """
    merged: Dict[str, float] = {}
    for entry in entries:
        for key, value in entry.scalars.items():
            merged[f"{entry.name}.{key}"] = value
    return merged


def check_anchors(
    scalars: Mapping[str, float],
    anchors: Sequence[Anchor] = PAPER_ANCHORS,
) -> List[AnchorVerdict]:
    """Judge every anchor against a flat scalar mapping."""
    verdicts = []
    for anchor in anchors:
        measured = scalars.get(anchor.metric)
        if measured is None:
            verdicts.append(AnchorVerdict(anchor, None, "missing"))
        else:
            verdicts.append(
                AnchorVerdict(anchor, float(measured), anchor.judge(measured))
            )
    return verdicts


def worst_status(
    verdicts: Sequence[AnchorVerdict], *, missing_is_fail: bool = False
) -> str:
    """The most severe status across verdicts (``pass`` when empty)."""
    worst = "pass"
    for v in verdicts:
        status = v.status
        if status == "missing":
            if not missing_is_fail:
                continue
            status = "fail"
        if STATUS_ORDER.index(status) > STATUS_ORDER.index(worst):
            worst = status
    return worst


_STATUS_MARK = {"pass": "ok  ", "warn": "WARN", "fail": "FAIL", "missing": "----"}


def render_verdicts(verdicts: Sequence[AnchorVerdict]) -> str:
    """Aligned terminal table: one row per anchor."""
    if not verdicts:
        return "(no anchors checked)"
    rows = []
    for v in verdicts:
        a = v.anchor
        measured = "     --" if v.measured is None else f"{v.measured:7.2f}"
        dev = "" if v.deviation is None else f"  ({v.deviation:+.2f} {a.unit})"
        rows.append(
            f"{_STATUS_MARK[v.status]}  {a.name:<26} "
            f"paper {a.paper_value:7.2f} {a.unit:<2} "
            f"measured {measured}{dev}"
        )
    return "\n".join(rows)

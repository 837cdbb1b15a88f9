"""Declarative SLOs: the service's pass/warn/fail bands.

What :mod:`repro.telemetry.anchors` does for the paper's *scientific*
claims, this module does for the service's *operational* claims: each
:class:`Slo` names one flat service metric (a key of
``RedMetrics.metrics()``), a direction, and a pass/fail pair of bounds;
:func:`check_slos` judges a metrics mapping into verdicts with the same
``pass`` / ``warn`` / ``fail`` / ``missing`` vocabulary — so the anchor
machinery's :func:`~repro.telemetry.anchors.worst_status` (duck-typed on
``.status``) aggregates both kinds unchanged, and ``repro loadgen
--slo-gate enforce`` exits non-zero exactly like the CI anchor gate.

Bands are one-sided: an *upper*-bound SLO (latency) passes at or below
``pass_at``, fails above ``fail_at`` and warns between; a *lower*-bound
SLO (availability) mirrors that.  Custom specs load from JSON
(:func:`load_slo_spec`) so a deployment can tighten bands without
touching code.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..telemetry.anchors import STATUS_ORDER  # noqa: F401  (re-exported order)

PathLike = Union[str, pathlib.Path]

#: schema version of the JSON SLO-spec file format
SLO_SPEC_FORMAT = 1

_BOUNDS = ("upper", "lower")


@dataclass(frozen=True)
class Slo:
    """One service-level objective with pass/warn/fail bands."""

    name: str
    #: flat metric key from ``RedMetrics.metrics()``, e.g. ``auth.p99_ms``
    metric: str
    #: ``upper``: smaller is better (latency); ``lower``: bigger is
    #: better (availability)
    bound: str
    #: best-side bound: measured on the good side of this passes
    pass_at: float
    #: worst-side bound: measured beyond this fails; between warns
    fail_at: float
    unit: str = ""
    note: str = ""

    def __post_init__(self):
        if self.bound not in _BOUNDS:
            raise ValueError(f"slo {self.name!r}: bound must be one of {_BOUNDS}")
        if self.bound == "upper" and self.fail_at < self.pass_at:
            raise ValueError(
                f"slo {self.name!r}: upper bound needs fail_at >= pass_at"
            )
        if self.bound == "lower" and self.fail_at > self.pass_at:
            raise ValueError(
                f"slo {self.name!r}: lower bound needs fail_at <= pass_at"
            )

    def judge(self, measured: float) -> str:
        """pass / warn / fail for one measured value."""
        if not math.isfinite(measured):
            return "fail"
        if self.bound == "upper":
            if measured <= self.pass_at:
                return "pass"
            return "warn" if measured <= self.fail_at else "fail"
        if measured >= self.pass_at:
            return "pass"
        return "warn" if measured >= self.fail_at else "fail"


@dataclass(frozen=True)
class SloVerdict:
    """One SLO's outcome against one run's service metrics."""

    slo: Slo
    measured: Optional[float]
    status: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.slo.name,
            "metric": self.slo.metric,
            "bound": self.slo.bound,
            "pass_at": self.slo.pass_at,
            "fail_at": self.slo.fail_at,
            "unit": self.slo.unit,
            "measured": self.measured,
            "status": self.status,
        }


#: The default objectives for the fleet service.  Latency bands are set
#: from the single-process asyncio server's measured headroom (p99 well
#: under 10 ms at 10k+ auth/sec on the reference box); availability
#: counts only *errors* — an impostor rejection is the service working.
DEFAULT_SLOS: Sequence[Slo] = (
    Slo(
        name="auth-availability",
        metric="auth.availability",
        bound="lower",
        pass_at=0.999,
        fail_at=0.99,
        note="error rate (not rejections) must stay under 0.1%",
    ),
    Slo(
        name="auth-p99-latency",
        metric="auth.p99_ms",
        bound="upper",
        pass_at=10.0,
        fail_at=50.0,
        unit="ms",
        note="ok-outcome p99 under 10 ms; 50 ms is user-visible",
    ),
    Slo(
        name="auth-p999-latency",
        metric="auth.p999_ms",
        bound="upper",
        pass_at=50.0,
        fail_at=250.0,
        unit="ms",
        note="tail-of-tail: one bad request in a thousand still bounded",
    ),
)


def check_slos(
    metrics: Mapping[str, float],
    slos: Sequence[Slo] = DEFAULT_SLOS,
) -> List[SloVerdict]:
    """Judge every SLO against a flat service-metrics mapping."""
    verdicts = []
    for slo in slos:
        measured = metrics.get(slo.metric)
        if measured is None:
            verdicts.append(SloVerdict(slo, None, "missing"))
        else:
            verdicts.append(SloVerdict(slo, float(measured), slo.judge(float(measured))))
    return verdicts


def slo_verdicts_payload(verdicts: Sequence[SloVerdict]) -> List[Dict[str, Any]]:
    """JSON-ready verdict list for the loadgen artefact's ``service.slo``."""
    return [v.to_dict() for v in verdicts]


_STATUS_MARK = {"pass": "ok  ", "warn": "WARN", "fail": "FAIL", "missing": "----"}
_BOUND_MARK = {"upper": "<=", "lower": ">="}


def render_slo_verdicts(verdicts: Sequence[SloVerdict]) -> str:
    """Aligned terminal table: one row per objective."""
    if not verdicts:
        return "(no SLOs checked)"
    rows = []
    for v in verdicts:
        s = v.slo
        measured = "     --" if v.measured is None else f"{v.measured:9.3f}"
        rows.append(
            f"{_STATUS_MARK[v.status]}  {s.name:<22} "
            f"{s.metric:<22} {measured} {s.unit:<3} "
            f"(pass {_BOUND_MARK[s.bound]} {s.pass_at:g}, "
            f"fail beyond {s.fail_at:g})"
        )
    return "\n".join(rows)


def load_slo_spec(path: PathLike) -> List[Slo]:
    """Load a JSON SLO spec: ``{"format": 1, "slos": [{...}, ...]}``.

    Each entry carries the :class:`Slo` fields (``unit``/``note``
    optional); unknown keys are rejected so a typo'd band name cannot
    silently disable an objective, and band values must be finite real
    numbers (``NaN``, ``Infinity`` and ``true`` are not).  Every refusal
    is a :class:`ValueError` that names the file and, for an entry at
    fault, its ``slos[i]``.
    """
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    try:
        return _parse_slo_spec(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _band(entry: Mapping[str, Any], key: str) -> float:
    """``entry[key]`` as a band bound: a finite real number, not a bool."""
    value = entry[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            bound = float(value)
        except OverflowError:
            bound = math.inf
        if math.isfinite(bound):
            return bound
    raise ValueError(f"{key} must be a finite number, got {value!r}")


def _parse_slo_spec(payload: Any) -> List[Slo]:
    if not isinstance(payload, dict):
        raise ValueError("SLO spec must be a JSON object")
    fmt = payload.get("format")
    if fmt != SLO_SPEC_FORMAT:
        raise ValueError(
            f"unsupported SLO spec format {fmt!r} (expected {SLO_SPEC_FORMAT})"
        )
    entries = payload.get("slos")
    if not isinstance(entries, list) or not entries:
        raise ValueError("SLO spec needs a non-empty 'slos' list")
    allowed = {"name", "metric", "bound", "pass_at", "fail_at", "unit", "note"}
    slos = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"slos[{i}] must be an object")
        unknown = set(entry) - allowed
        if unknown:
            raise ValueError(f"slos[{i}] has unknown keys: {sorted(unknown)}")
        try:
            slos.append(
                Slo(
                    name=str(entry["name"]),
                    metric=str(entry["metric"]),
                    bound=str(entry["bound"]),
                    pass_at=_band(entry, "pass_at"),
                    fail_at=_band(entry, "fail_at"),
                    unit=str(entry.get("unit", "")),
                    note=str(entry.get("note", "")),
                )
            )
        except KeyError as exc:
            raise ValueError(f"slos[{i}] is missing required key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"slos[{i}]: {exc}") from None
    return slos

"""Margin capture: turn a population study into a per-bit provenance record.

:class:`MarginCollector` is the in-memory tape behind the kernel hook in
:mod:`repro.forensics.hook`: every response evaluation that happens while
a collector is active deposits its signed relative margins, keyed by the
``(t_years, corner)`` that produced them.  :func:`capture_forensics`
drives a study through an aging grid under such a session and assembles
the result — margins, bits, per-mechanism margin shifts and the
enrolment-time forecast — into one :class:`DesignForensics` record.

The capture never alters evaluation: bits come from the engine's own
``responses`` call (the hook runs *after* the comparison), and every
worker count and store produces bit-identical frequency tensors, so a
report built with ``--jobs N`` equals the serial one array for array.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..environment.conditions import OperatingConditions
from ..metrics.margins import (
    DEFAULT_HIST_BINS,
    DEFAULT_HIST_LIMIT,
    MarginSummary,
    histogram_edges,
    relative_margins,
    summarize_margins,
)
from .forecast import (
    K_DEFAULT,
    ForecastOutcome,
    MarginForecast,
    classify_bits,
    forecast_at_risk,
    rms_drift,
    score_forecast,
)
from .hook import collector_session

#: Aging grid captured by default: a compact trajectory up to the
#: paper's 10-year horizon (the full experiment sweep uses E2's grid).
DEFAULT_FORENSICS_YEARS: Tuple[float, ...] = (0.5, 2.0, 5.0, 10.0)

#: Default forecast horizon — the paper's headline 10-year point.
DEFAULT_HORIZON = 10.0


def _corner_key(t_years: float, conditions: Optional[OperatingConditions]) -> tuple:
    return (float(t_years), conditions or OperatingConditions.nominal())


class MarginCollector:
    """Bounded LRU tape of signed margins per ``(t_years, corner)``.

    Any object with this ``record`` signature can sit in the hook slot;
    this one computes relative margins from the frequencies the kernel
    hands it and keeps the latest ``max_corners`` grids (re-recording a
    corner overwrites deterministically, so memo-hit re-evaluations are
    idempotent).
    """

    def __init__(self, max_corners: int = 64):
        if max_corners < 1:
            raise ValueError("max_corners must be positive")
        self.max_corners = max_corners
        self._tape: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    def record(self, frequencies, pairs, t_years, conditions) -> None:
        """Hook entry point: margins from one response evaluation."""
        self.record_margins(
            relative_margins(frequencies, pairs), t_years, conditions
        )

    def record_margins(self, margins, t_years, conditions) -> None:
        """Deposit a pre-computed margin grid (the parallel path's entry)."""
        grid = np.array(margins, dtype=float)  # own copy
        grid.flags.writeable = False
        key = _corner_key(t_years, conditions)
        self._tape[key] = grid
        self._tape.move_to_end(key)
        if len(self._tape) > self.max_corners:
            self._tape.popitem(last=False)

    def margins(
        self,
        t_years: float = 0.0,
        conditions: Optional[OperatingConditions] = None,
    ) -> np.ndarray:
        """The recorded margin grid for a corner (read-only)."""
        key = _corner_key(t_years, conditions)
        try:
            return self._tape[key]
        except KeyError:
            raise KeyError(
                f"no margins recorded for t={key[0]} at {key[1].describe()}"
            ) from None

    def has(
        self,
        t_years: float = 0.0,
        conditions: Optional[OperatingConditions] = None,
    ) -> bool:
        return _corner_key(t_years, conditions) in self._tape

    def corners(self) -> list:
        """Recorded ``(t_years, conditions)`` keys, oldest first."""
        return list(self._tape)

    def __len__(self) -> int:
        return len(self._tape)


@dataclass(frozen=True)
class DesignForensics:
    """Per-bit provenance of one design's aging trajectory.

    Margins are dimensionless signed fractions (see
    :func:`repro.metrics.margins.relative_margins`); every array is keyed
    or shaped ``(n_chips, n_bits)``.  ``bti_shift`` / ``hci_shift`` are
    the horizon margin shifts under the single-mechanism counterfactuals;
    their gap to the total shift is the (small) mechanism interaction
    through the nonlinear delay model, exposed as
    :meth:`interaction_shift` rather than silently folded into either
    mechanism.
    """

    design: str
    years: Tuple[float, ...]  # captured grid, ascending, starts at 0.0
    t_horizon: float
    pairs: np.ndarray  # (n_bits, 2) RO indices
    margins: Dict[float, np.ndarray]  # year -> (n_chips, n_bits) signed
    bits: Dict[float, np.ndarray]  # year -> (n_chips, n_bits) uint8
    bti_shift: np.ndarray  # (n_chips, n_bits) margin shift, BTI only
    hci_shift: np.ndarray  # (n_chips, n_bits) margin shift, HCI only
    forecast: MarginForecast
    outcome: ForecastOutcome
    hist_edges: np.ndarray  # shared signed-margin bin edges
    histograms: Dict[float, np.ndarray] = field(default_factory=dict)

    # ---- geometry ----------------------------------------------------

    @property
    def n_chips(self) -> int:
        return self.fresh_margins.shape[0]

    @property
    def n_bits(self) -> int:
        return self.fresh_margins.shape[1]

    # ---- derived views -----------------------------------------------

    @property
    def fresh_margins(self) -> np.ndarray:
        return self.margins[0.0]

    @property
    def horizon_margins(self) -> np.ndarray:
        return self.margins[self.t_horizon]

    @property
    def flipped(self) -> np.ndarray:
        """Bits whose horizon response differs from enrolment (bool)."""
        return self.bits[self.t_horizon] != self.bits[0.0]

    @property
    def total_shift(self) -> np.ndarray:
        """Signed margin shift at the horizon (all mechanisms)."""
        return self.horizon_margins - self.fresh_margins

    def interaction_shift(self) -> np.ndarray:
        """Shift not explained by either single-mechanism counterfactual."""
        return self.total_shift - self.bti_shift - self.hci_shift

    def status(self) -> np.ndarray:
        """Per-bit codes: stable / at-risk / flipped (flipped wins)."""
        return classify_bits(self.forecast.at_risk, self.flipped)

    def oriented_margins(self, t_years: Optional[float] = None) -> np.ndarray:
        """Margins re-signed so positive means "holding the enrolled bit".

        ``m(t) * sign(m(0))``: positive cells still read the enrolment
        response, negative cells have flipped — the natural quantity to
        plot on a diverging scale.  Knife-edge enrolment margins of
        exactly zero keep their aged sign.
        """
        t = self.t_horizon if t_years is None else float(t_years)
        sign = np.sign(self.fresh_margins)
        sign[sign == 0] = 1.0
        return self.margins[t] * sign

    def summary(self, t_years: float = 0.0) -> MarginSummary:
        """|margin| distribution summary at ``t_years``."""
        return summarize_margins(self.margins[float(t_years)])

    @property
    def flipped_fraction(self) -> float:
        return float(self.flipped.mean())


def capture_forensics(
    study,
    *,
    design_label: Optional[str] = None,
    years: Sequence[float] = DEFAULT_FORENSICS_YEARS,
    t_horizon: float = DEFAULT_HORIZON,
    k: float = K_DEFAULT,
    challenge: Optional[int] = None,
    conditions: Optional[OperatingConditions] = None,
    hist_limit: float = DEFAULT_HIST_LIMIT,
    hist_bins: int = DEFAULT_HIST_BINS,
) -> DesignForensics:
    """Run a study through the aging grid and assemble its forensics.

    ``study`` is a :class:`~repro.core.population.BatchStudy` over any
    source and worker count; the capture rides the
    hook installed for the duration of this call, so no engine internals
    are touched and the response bits returned to other callers are
    unchanged.  The enrolment-time forecast consumes the fresh margins
    plus one aggregate drift scalar (see :mod:`repro.forensics.forecast`)
    and is scored against the actual flips at ``t_horizon``.
    """
    grid = sorted({0.0, float(t_horizon), *(float(t) for t in years)})
    if grid[0] < 0.0:
        raise ValueError("years must be non-negative")
    label = design_label or getattr(study.design, "name", "design")
    edges = histogram_edges(hist_limit, hist_bins)
    sp = telemetry.start_span(
        "forensics.capture",
        design=label,
        n_years=len(grid),
        t_horizon=float(t_horizon),
    )
    try:
        collector = MarginCollector()
        bits: Dict[float, np.ndarray] = {}
        histograms: Dict[float, np.ndarray] = {}
        with collector_session(collector):
            for i, t in enumerate(grid):
                bits[t] = study.responses(challenge, t, conditions=conditions)
                histograms[t] = study.margin_histogram(
                    edges, challenge, t, conditions=conditions
                )
                telemetry.progress("forensics.capture", i + 1, len(grid))
        margins = {t: collector.margins(t, conditions) for t in grid}

        pairs = study.design.pairing.pairs(study.design.n_ros, challenge)
        m0 = margins[0.0]
        m_horizon = margins[float(t_horizon)]
        bti_shift = (
            relative_margins(
                study.mechanism_frequencies(t_horizon, "bti", conditions), pairs
            )
            - m0
        )
        hci_shift = (
            relative_margins(
                study.mechanism_frequencies(t_horizon, "hci", conditions), pairs
            )
            - m0
        )

        forecast = forecast_at_risk(m0, rms_drift(m0, m_horizon), k)
        flipped = bits[float(t_horizon)] != bits[0.0]
        outcome = score_forecast(forecast.at_risk, flipped)
        telemetry.count("forensics.captures")
        return DesignForensics(
            design=label,
            years=tuple(grid),
            t_horizon=float(t_horizon),
            pairs=np.asarray(pairs),
            margins=margins,
            bits=bits,
            bti_shift=bti_shift,
            hci_shift=hci_shift,
            forecast=forecast,
            outcome=outcome,
            hist_edges=edges,
            histograms=histograms,
        )
    finally:
        telemetry.end_span(sp)

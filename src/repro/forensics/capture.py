"""Margin capture: turn a population study into a per-bit provenance record.

:func:`capture_forensics` asks the engine for one frequency corner per
year of an aging grid and derives everything from it — the response
bits (the same ``f[a] > f[b]`` comparison the kernel's response sink
runs), the signed relative margins and their histograms — then adds the
per-mechanism margin shifts and the enrolment-time forecast, and
assembles one :class:`DesignForensics` record.

The capture only reads frequencies, so it never alters evaluation, and
every worker count and store produces bit-identical frequency tensors:
a report built with ``--jobs N`` or ``--store mmap`` equals the serial
one array for array.
"""

from __future__ import annotations

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
    margin_histogram,
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

#: Aging grid captured by default: a compact trajectory up to the
#: paper's 10-year horizon (the full experiment sweep uses E2's grid).
DEFAULT_FORENSICS_YEARS: Tuple[float, ...] = (0.5, 2.0, 5.0, 10.0)

#: Default forecast horizon — the paper's headline 10-year point.
DEFAULT_HORIZON = 10.0


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


def _read_corner(
    freqs: np.ndarray, pairs: np.ndarray, edges: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bits, signed margins and margin histogram of one frequency corner.

    The bits run the kernel response sink's comparison (``f[a] > f[b]``),
    never ``sign(margin)``.  The corner is not kept, so a streaming
    study's fresh corner is freed before the next year's is computed.
    """
    bits = np.greater(freqs[:, pairs[:, 0]], freqs[:, pairs[:, 1]]).view(np.uint8)
    margins = relative_margins(freqs, pairs)
    return bits, margins, margin_histogram(margins, edges)


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
    source and worker count; the capture makes one
    :meth:`~repro.core.population.BatchStudy.frequencies` call per grid
    year plus the two mechanism counterfactuals at the horizon, so the
    response bits returned to other callers are unchanged.  The
    enrolment-time forecast consumes the fresh margins plus one
    aggregate drift scalar (see :mod:`repro.forensics.forecast`) and is
    scored against the actual flips at ``t_horizon``.
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
        pairs = study.design.pairing.pairs(study.design.n_ros, challenge)
        bits: Dict[float, np.ndarray] = {}
        margins: Dict[float, np.ndarray] = {}
        histograms: Dict[float, np.ndarray] = {}
        for i, t in enumerate(grid):
            bits[t], margins[t], histograms[t] = _read_corner(
                study.frequencies(t, conditions), pairs, edges
            )
            telemetry.progress("forensics.capture", i + 1, len(grid))

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

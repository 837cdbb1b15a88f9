"""Bit-level provenance: margin capture, mechanism attribution, forecasts.

The forensics layer answers the questions the run ledger's scalars
cannot: *which* bits flip, how much margin each comparison started with,
and whether NBTI/PBTI or HCI ate that margin.  A capture asks the
engine for frequency corners
(:meth:`~repro.core.population.BatchStudy.frequencies`) and derives
bits, margins and histograms from them, so it never changes response
bits and costs nothing when nobody asks.

``repro.forensics.report`` / ``repro.forensics.export`` (text tables,
JSON payloads, PPM heatmaps) are imported by their callers rather than
re-exported here.
"""

from .capture import (
    DEFAULT_FORENSICS_YEARS,
    DEFAULT_HORIZON,
    DesignForensics,
    capture_forensics,
)
from .forecast import (
    K_DEFAULT,
    STATUS_AT_RISK,
    STATUS_FLIPPED,
    STATUS_LABELS,
    STATUS_STABLE,
    ForecastOutcome,
    MarginForecast,
    classify_bits,
    forecast_at_risk,
    rms_drift,
    score_forecast,
)

__all__ = [
    "DEFAULT_FORENSICS_YEARS",
    "DEFAULT_HORIZON",
    "DesignForensics",
    "ForecastOutcome",
    "K_DEFAULT",
    "MarginForecast",
    "STATUS_AT_RISK",
    "STATUS_FLIPPED",
    "STATUS_LABELS",
    "STATUS_STABLE",
    "capture_forensics",
    "classify_bits",
    "forecast_at_risk",
    "rms_drift",
    "score_forecast",
]

"""Mission profiles: how the PUF is used over the product's lifetime.

Aging is driven entirely by *how* the circuit spends its years in the
field, so every aging experiment starts from a :class:`MissionProfile`:
how often the PUF is interrogated (and hence how long the oscillators
actually oscillate), what the silicon temperature is, and what the parked
oscillators do in between (the knob the ARO design turns).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

#: seconds in a Julian year, used for all duty/transition bookkeeping
SECONDS_PER_YEAR = 365.25 * 86400.0


def check_years(t_years: float) -> float:
    """``t_years`` as a float; refused unless finite and non-negative.

    The one guard on a mission time.  A NaN compares false against zero
    and an infinite time saturates every clip, so a bare ``t < 0`` test
    would let both through as a valid age.
    """
    t = float(t_years)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t_years must be finite and non-negative, got {t}")
    return t


class IdlePolicy(enum.Enum):
    """What a non-selected oscillator does between evaluations."""

    #: parked by the enable gate; the chain latches a static pattern and
    #: every other PMOS sits under DC NBTI stress (conventional RO-PUF).
    PARKED_STATIC = "parked_static"
    #: firmware mitigation: the parked pattern is periodically inverted
    #: (e.g. via a toggle flip-flop on the enable path), so every device
    #: spends half the idle life under stress instead of a fixed subset
    #: spending all of it.  The obvious software alternative to the ARO —
    #: and, as experiment E7 shows, a poor one: the t**(1/6) law makes the
    #: half-duty discount tiny while the stress now scatters over *all*
    #: devices, so the differential aging that flips bits barely improves.
    PARKED_TOGGLING = "parked_toggling"
    #: ring broken, every inverter input steered to the recovery level;
    #: no device is under DC stress (the ARO cell).
    RECOVERY = "recovery"
    #: enable held high; the oscillator free-runs for the whole lifetime
    #: (AC NBTI at 50 % duty plus massive HCI) — an ablation baseline.
    FREE_RUNNING = "free_running"


@dataclass(frozen=True)
class MissionProfile:
    """Lifetime usage pattern of the PUF.

    Parameters
    ----------
    eval_duty:
        Fraction of wall-clock time the oscillators spend oscillating for
        key regeneration.  Regenerating a 128-bit key takes the 128 pair
        measurements x 20 us window ~ 2.6 ms; at roughly seven
        regenerations per day that is ~6 s of oscillation per year, i.e. a
        duty of 2e-7 — the default.
    temperature_k:
        Silicon temperature during the mission (both stress and idle), in
        kelvin.  45 degC is a typical consumer-device average.
    osc_frequency_hz:
        Representative oscillation frequency used for HCI transition
        counting (the exact per-RO frequency spread is irrelevant at the
        HCI magnitudes involved).
    """

    eval_duty: float = 2.0e-7
    temperature_k: float = 318.15
    osc_frequency_hz: float = 1.0e9

    def __post_init__(self) -> None:
        if not 0.0 <= self.eval_duty <= 1.0:
            raise ValueError("eval_duty must be in [0, 1]")
        if self.temperature_k <= 0:
            raise ValueError("temperature_k must be positive kelvin")
        if self.osc_frequency_hz <= 0:
            raise ValueError("osc_frequency_hz must be positive")

    def with_eval_duty(self, eval_duty: float) -> "MissionProfile":
        """Copy of the profile with a different evaluation duty."""
        return replace(self, eval_duty=eval_duty)

    def active_seconds(self, t_years: float) -> float:
        """Total oscillation time accumulated after ``t_years`` (seconds)."""
        check_years(t_years)
        return self.eval_duty * t_years * SECONDS_PER_YEAR

    def transitions(self, t_years: float) -> float:
        """Output transitions accumulated per oscillating device."""
        return self.osc_frequency_hz * self.active_seconds(t_years)


def typical_mission() -> MissionProfile:
    """The default 10-year consumer mission used throughout the paper repro."""
    return MissionProfile()


def burn_in_mission(temperature_k: float = 398.15) -> MissionProfile:
    """An accelerated-stress profile (125 degC) for burn-in style studies."""
    return MissionProfile(temperature_k=temperature_k)

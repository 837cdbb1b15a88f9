"""Analytic MOSFET drive/delay model (alpha-power law).

This module stands in for the HSPICE + PTM device layer of the paper.  The
only device property the PUF ultimately consumes is the propagation delay of
each inverting stage as a function of each transistor's threshold voltage,
the supply, and the temperature, so we model exactly that:

* Saturation drive current follows Sakurai-Newton's alpha-power law,
  ``I_d = k * mu(T)/mu0 * (vdd - vth(T))**alpha``.
* A stage transition (output rising through the PMOS, or falling through
  the NMOS) takes ``t = c_load * vdd / I_d``.
* Temperature acts through carrier mobility (``(T/T0)**mobility_exp``) and
  through the threshold voltage (linear ``vth_tc`` shift).

All functions are vectorised: ``vth`` may be any numpy array and the result
has the same shape.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .technology import T_REF_K, TechnologyCard

ArrayLike = Union[float, np.ndarray]


def vth_at_temperature(
    vth: ArrayLike,
    temperature_k: float,
    tech: TechnologyCard,
    tc_scale: Optional[ArrayLike] = None,
) -> np.ndarray:
    """Threshold voltage (magnitude) at ``temperature_k``.

    ``tc_scale`` optionally carries per-device multiplicative mismatch of
    the temperature coefficient (1.0 = nominal); this is what converts a
    temperature excursion into *differential* frequency shift between two
    ROs, the quantity that can flip bits.
    """
    vth = np.asarray(vth, dtype=float)
    delta_t = temperature_k - T_REF_K
    tc = tech.vth_tc if tc_scale is None else tech.vth_tc * np.asarray(tc_scale)
    # vth_tc < 0: thresholds shrink with temperature (for both polarities we
    # track magnitudes, which shrink symmetrically to first order).
    return vth + tc * delta_t


def mobility_factor(temperature_k: float, tech: TechnologyCard) -> float:
    """Mobility degradation factor ``mu(T)/mu(T_ref)`` (dimensionless)."""
    if temperature_k <= 0:
        raise ValueError("temperature must be positive kelvin")
    return float((temperature_k / T_REF_K) ** tech.mobility_exp)


def drive_current(
    vth: ArrayLike,
    tech: TechnologyCard,
    *,
    vdd: Optional[float] = None,
    temperature_k: float = T_REF_K,
    tc_scale: Optional[ArrayLike] = None,
) -> np.ndarray:
    """Saturation drive current of a device with threshold ``vth`` (amps).

    Raises :class:`ValueError` if any device would have no overdrive at the
    requested supply (the RO would simply not oscillate; better to fail
    loudly than return garbage frequencies).
    """
    vdd_eff = tech.vdd if vdd is None else float(vdd)
    vth_t = vth_at_temperature(vth, temperature_k, tech, tc_scale)
    overdrive = vdd_eff - vth_t
    if not np.all(overdrive > 0):
        raise ValueError(
            "non-positive gate overdrive: vdd={:.3f} V cannot turn on a "
            "device with vth up to {:.3f} V".format(vdd_eff, float(np.max(vth_t)))
        )
    mu = mobility_factor(temperature_k, tech)
    return tech.k_drive * mu * overdrive**tech.alpha


def transition_delay(
    vth: ArrayLike,
    tech: TechnologyCard,
    *,
    vdd: Optional[float] = None,
    temperature_k: float = T_REF_K,
    tc_scale: Optional[ArrayLike] = None,
    c_load: Optional[float] = None,
) -> np.ndarray:
    """Propagation delay of one output transition (seconds).

    A rising output transition is driven by the stage PMOS (pass ``vth`` of
    the PMOS), a falling one by the NMOS.  ``c_load`` defaults to the
    technology's per-stage load.
    """
    vdd_eff = tech.vdd if vdd is None else float(vdd)
    cap = tech.c_load if c_load is None else float(c_load)
    current = drive_current(
        vth, tech, vdd=vdd_eff, temperature_k=temperature_k, tc_scale=tc_scale
    )
    return cap * vdd_eff / current


def delay_sensitivity(tech: TechnologyCard) -> float:
    """First-order relative delay sensitivity to a Vth shift, per volt.

    ``d(ln t)/d(vth) = alpha / (vdd - vth)`` — used by the calibration
    notes in DESIGN.md and by fast analytic estimates in tests.
    """
    return tech.alpha / tech.gate_overdrive

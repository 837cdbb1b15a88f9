"""Negative/positive bias temperature instability model.

Long-term reaction-diffusion form with duty-factor (stress-probability)
dependence::

    dVth(t) = A_dev * k_T(T) * (duty * t_years) ** n

* ``A_dev`` is the per-device prefactor; deeply scaled devices hold only a
  handful of interface traps, so ``A_dev`` scatters widely device to
  device (log-normal around ``NbtiParameters.a_mean`` with CV
  ``a_cv``).  This scatter — not the mean shift — is what flips PUF bits:
  the common-mode part of aging cancels in every RO comparison.
* ``k_T`` is the Arrhenius temperature acceleration,
  ``exp(Ea/kB * (1/T_ref - 1/T))``.
* The same functional form serves PBTI on the NMOS, scaled down by
  ``NbtiParameters.pbti_factor``.

The explicit stress/recovery *cycling* model (:func:`relaxed_shift`)
implements the fractional-recovery correction used when a device's DC
stress is interrupted — e.g. the "periodic state toggling" mitigation
discussed as an alternative to the ARO cell.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..transistor.technology import BOLTZMANN_EV, T_REF_K, NbtiParameters
from .schedule import check_years

ArrayLike = Union[float, np.ndarray]


def temperature_acceleration(temperature_k: float, params: NbtiParameters) -> float:
    """Arrhenius acceleration factor ``k_T`` relative to ``T_ref``."""
    if temperature_k <= 0:
        raise ValueError("temperature must be positive kelvin")
    return float(
        np.exp(params.ea / BOLTZMANN_EV * (1.0 / T_REF_K - 1.0 / temperature_k))
    )


def bti_shift(
    duty: ArrayLike,
    t_years: float,
    params: NbtiParameters,
    *,
    prefactor: ArrayLike = None,
    temperature_k: float = T_REF_K,
    pbti: bool = False,
) -> np.ndarray:
    """Threshold shift magnitude after ``t_years`` at the given duty (volts).

    Parameters
    ----------
    duty:
        Stress probability in [0, 1] (fraction of lifetime under stress).
    prefactor:
        Per-device prefactor(s) ``A_dev``; defaults to the mean
        ``params.a_mean``.  Broadcasts against ``duty``.
    pbti:
        Apply the NMOS (PBTI) severity scaling.
    """
    duty = np.asarray(duty, dtype=float)
    if np.any(duty < 0) or np.any(duty > 1):
        raise ValueError("duty must be in [0, 1]")
    check_years(t_years)
    a = params.a_mean if prefactor is None else np.asarray(prefactor, dtype=float)
    k_t = temperature_acceleration(temperature_k, params)
    scale = params.pbti_factor if pbti else 1.0
    shift = scale * a * k_t * np.power(duty * t_years, params.n)
    # interface-trap generation saturates; clip the log-normal tail to the
    # physically attainable shift
    return np.minimum(shift, params.max_shift)


def sample_prefactors(
    shape,
    params: NbtiParameters,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw per-device log-normal NBTI prefactors ``A_dev``.

    The log-normal is parameterised so the *mean* equals ``params.a_mean``
    and the coefficient of variation equals ``params.a_cv``.
    """
    cv = params.a_cv
    if cv < 0:
        raise ValueError("a_cv must be non-negative")
    if cv == 0.0:
        return np.full(shape, params.a_mean)
    sigma2 = np.log1p(cv**2)
    mu = np.log(params.a_mean) - 0.5 * sigma2
    return rng.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=shape)


def relaxed_shift(
    duty: ArrayLike,
    t_years: float,
    params: NbtiParameters,
    *,
    prefactor: ArrayLike = None,
    temperature_k: float = T_REF_K,
    relax_cycles: int = 0,
) -> np.ndarray:
    """BTI shift when DC stress is periodically interrupted.

    Each stress interruption lets the relaxable trap population anneal,
    removing ``params.recovery_fraction`` of the shift accumulated *since
    the previous interruption*; the permanent component keeps the power-law
    envelope.  With ``relax_cycles = 0`` this reduces to :func:`bti_shift`.

    This models the "flip the parked state every so often" mitigation that
    the ARO design renders unnecessary.
    """
    base = bti_shift(
        duty,
        t_years,
        params,
        prefactor=prefactor,
        temperature_k=temperature_k,
    )
    if relax_cycles < 0:
        raise ValueError("relax_cycles must be non-negative")
    if relax_cycles == 0:
        return base
    # A fraction ``recovery_fraction`` of the shift is relaxable; each
    # interruption anneals the relaxable damage accumulated since the
    # previous one, so with many cycles the observable shift saturates at
    # the permanent component.  ``c / (c + 1)`` interpolates smoothly
    # between no recovery (c = 0) and full relaxable recovery (c -> inf).
    r = params.recovery_fraction
    c = float(relax_cycles)
    surviving = 1.0 - r * c / (c + 1.0)
    return base * surviving

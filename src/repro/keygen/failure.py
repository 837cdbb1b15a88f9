"""Key-failure analysis: analytic bounds plus Monte-Carlo validation.

The design-space search relies on the analytic binomial model
(:meth:`repro.ecc.KeyCodec.key_failure_probability`); this module also
provides an empirical estimator that exercises the *actual* decoder on
synthetic error patterns, used by the test suite to validate the analytic
model end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import RngLike, as_generator
from ..ecc.concatenated import KeyCodec
from .fuzzy_extractor import FuzzyExtractor, KeyRecoveryError


@dataclass(frozen=True)
class FailureEstimate:
    """Empirical key-failure estimate with a confidence interval."""

    failures: int
    trials: int
    p_hat: float
    ci_low: float
    ci_high: float


def analytic_key_failure(codec: KeyCodec, p: float) -> float:
    """Analytic key-failure probability at raw bit-error rate ``p``."""
    return codec.key_failure_probability(p)


def required_correction(p: float, n: int, target: float) -> int:
    """Smallest ``t`` such that ``P[Binomial(n, p) > t] <= target``.

    A convenience for sizing a standalone BCH code: how many errors must a
    length-``n`` block correct to meet the block-failure target.  One
    ``binom.sf`` call tabulates the tail for every candidate ``t``.
    """
    from scipy import stats

    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    if target <= 0:
        raise ValueError("target must be positive")
    met = np.flatnonzero(stats.binom.sf(np.arange(n + 1), n, p) <= target)
    return int(met[0]) if met.size else n


def empirical_key_failure(
    extractor: FuzzyExtractor,
    p: float,
    trials: int = 200,
    rng: RngLike = None,
) -> FailureEstimate:
    """Monte-Carlo the full enrol -> corrupt -> reproduce pipeline.

    A trial fails when the reproduced key differs from the enrolled one
    (silent miscorrection) or the decoder reports an unrecoverable word.
    The confidence interval is the 95 % Wilson interval.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    gen = as_generator(rng)
    n_bits = extractor.response_bits
    failures = 0
    for _ in range(trials):
        response = gen.integers(0, 2, n_bits).astype(np.uint8)
        helper, key = extractor.enroll(response, rng=gen)
        noise = (gen.random(n_bits) < p).astype(np.uint8)
        try:
            key2 = extractor.reproduce(response ^ noise, helper)
            if key2 != key:
                failures += 1
        except KeyRecoveryError:
            failures += 1

    p_hat = failures / trials
    z = 1.959963984540054  # 97.5th normal percentile
    denom = 1 + z**2 / trials
    center = (p_hat + z**2 / (2 * trials)) / denom
    half = (
        z
        * np.sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2))
        / denom
    )
    return FailureEstimate(
        failures=failures,
        trials=trials,
        p_hat=p_hat,
        ci_low=max(0.0, center - half),
        ci_high=min(1.0, center + half),
    )

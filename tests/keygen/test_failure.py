"""Key-failure analysis: analytic model versus Monte-Carlo ground truth."""

import pytest

from repro.ecc import BchCode, ConcatenatedCode, KeyCodec, RepetitionCode
from repro.ecc.repetition import MAX_N
from repro.keygen import (
    FuzzyExtractor,
    analytic_key_failure,
    empirical_key_failure,
    required_correction,
)


def make_codec(m=5, t=2, r=3, key_bits=32):
    return KeyCodec(
        code=ConcatenatedCode(BchCode.design(m, t), RepetitionCode(r)),
        key_bits=key_bits,
    )


class TestRequiredCorrection:
    def test_zero_error_needs_nothing(self):
        assert required_correction(0.0, 127, 1e-6) == 0

    def test_monotone_in_p(self):
        ts = [required_correction(p, 127, 1e-6) for p in (0.01, 0.05, 0.1)]
        assert ts == sorted(ts)

    def test_monotone_in_target(self):
        loose = required_correction(0.05, 127, 1e-3)
        tight = required_correction(0.05, 127, 1e-9)
        assert tight > loose

    @pytest.mark.parametrize("n", [0, 1, 7, 31, 127, 255])
    @pytest.mark.parametrize("p", [0.0, 1e-4, 0.01, 0.077, 0.32, 0.5, 1.0])
    @pytest.mark.parametrize("target", [1e-12, 1e-6, 1e-3, 0.5])
    def test_matches_scalar_loop(self, p, n, target):
        """The one-call tabulation returns what a per-``t`` scalar loop
        over the exact binomial tail returns (scipy's ``binom.sf`` puts
        ``sf(127; 255, 0.5)``, exactly 0.5, three ULPs above the target
        0.5)."""
        a, d = float(p).as_integer_ratio()
        b = d - a
        # C(n, i) a^i b^(n - i), each term from the one before, exactly
        terms = [b**n]
        for i in range(1, n + 1):
            terms.append(terms[-1] * (n - i + 1) * a // (i * b) if b else 0)
        if b == 0:
            terms[n] = 1
        num, den = float(target).as_integer_ratio()
        bound = num * d**n
        exact = []
        tail = 0
        for term in reversed(terms):
            exact.append(tail * den <= bound)
            tail += term
        exact.reverse()
        expected = next((t for t in range(n + 1) if exact[t]), n)
        assert required_correction(p, n, target) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            required_correction(1.5, 127, 1e-6)
        with pytest.raises(ValueError):
            required_correction(0.1, 127, 0.0)
        with pytest.raises(ValueError, match="working range"):
            required_correction(0.1, MAX_N + 1, 1e-6)
        with pytest.raises(ValueError, match="working range"):
            required_correction(0.1, -1, 1e-6)


class TestAnalyticVsEmpirical:
    def test_agreement_at_moderate_error(self):
        """The binomial model must track the real decoder's failure rate.

        Chosen operating point: p where failures are frequent enough to
        measure in a few hundred trials (~20-40 %)."""
        codec = make_codec(m=5, t=2, r=3, key_bits=32)
        p = 0.12
        analytic = analytic_key_failure(codec, p)
        est = empirical_key_failure(
            FuzzyExtractor(codec), p, trials=400, rng=0
        )
        assert est.ci_low <= analytic <= est.ci_high

    def test_near_zero_error_never_fails(self):
        codec = make_codec()
        est = empirical_key_failure(FuzzyExtractor(codec), 0.0, trials=50, rng=1)
        assert est.failures == 0
        assert analytic_key_failure(codec, 0.0) == 0.0

    def test_overwhelming_error_always_fails(self):
        codec = make_codec()
        est = empirical_key_failure(FuzzyExtractor(codec), 0.49, trials=50, rng=2)
        assert est.p_hat > 0.9

    def test_ci_contains_estimate(self):
        codec = make_codec()
        est = empirical_key_failure(FuzzyExtractor(codec), 0.1, trials=100, rng=3)
        assert est.ci_low <= est.p_hat <= est.ci_high
        assert 0.0 <= est.ci_low and est.ci_high <= 1.0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            empirical_key_failure(FuzzyExtractor(make_codec()), 0.1, trials=0)

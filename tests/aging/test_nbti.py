"""NBTI/PBTI law: power laws, temperature, prefactor statistics."""

import numpy as np
import pytest

from repro.aging import bti_shift, relaxed_shift, sample_prefactors, temperature_acceleration
from repro.transistor import T_REF_K, ptm90
from repro.transistor.technology import NbtiParameters


@pytest.fixture(scope="module")
def params():
    return ptm90().nbti


class TestBtiShift:
    def test_zero_time_no_shift(self, params):
        assert bti_shift(1.0, 0.0, params) == 0.0

    def test_zero_duty_no_shift(self, params):
        assert bti_shift(0.0, 10.0, params) == 0.0

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, params, t):
        with pytest.raises(ValueError, match="finite"):
            bti_shift(1.0, t, params)

    def test_monotone_in_time(self, params):
        shifts = [float(bti_shift(1.0, t, params)) for t in (1, 2, 5, 10)]
        assert shifts == sorted(shifts)
        assert shifts[0] > 0

    def test_monotone_in_duty(self, params):
        shifts = [float(bti_shift(d, 10.0, params)) for d in (0.01, 0.1, 0.5, 1.0)]
        assert shifts == sorted(shifts)

    def test_power_law_exponent(self, params):
        """Time and duty enter only as (duty * t)**n."""
        a = float(bti_shift(1.0, 2.0, params))
        b = float(bti_shift(0.5, 4.0, params))
        assert a == pytest.approx(b)
        ratio = float(bti_shift(1.0, 10.0, params)) / float(bti_shift(1.0, 1.0, params))
        assert ratio == pytest.approx(10**params.n)

    def test_ten_year_dc_magnitude(self, params):
        """The documented ~68 mV 10-year DC shift at T_ref."""
        shift = float(bti_shift(1.0, 10.0, params))
        assert 0.05 < shift < 0.09

    def test_pbti_scaled_down(self, params):
        full = float(bti_shift(1.0, 10.0, params))
        weak = float(bti_shift(1.0, 10.0, params, pbti=True))
        assert weak == pytest.approx(params.pbti_factor * full)

    def test_saturation_cap(self, params):
        huge = float(bti_shift(1.0, 10.0, params, prefactor=10.0))
        assert huge == params.max_shift

    def test_duty_bounds_enforced(self, params):
        with pytest.raises(ValueError):
            bti_shift(1.5, 10.0, params)
        with pytest.raises(ValueError):
            bti_shift(-0.1, 10.0, params)

    def test_negative_time_rejected(self, params):
        with pytest.raises(ValueError):
            bti_shift(1.0, -1.0, params)

    def test_broadcasting(self, params):
        duty = np.array([[0.0, 0.5], [1.0, 0.25]])
        pref = np.full((2, 2), params.a_mean)
        out = bti_shift(duty, 10.0, params, prefactor=pref)
        assert out.shape == (2, 2)
        assert out[0, 0] == 0.0


class TestTemperature:
    def test_unity_at_reference(self, params):
        assert temperature_acceleration(T_REF_K, params) == pytest.approx(1.0)

    def test_accelerates_when_hot(self, params):
        assert temperature_acceleration(T_REF_K + 60, params) > 1.2

    def test_decelerates_when_cold(self, params):
        assert temperature_acceleration(T_REF_K - 40, params) < 1.0

    def test_arrhenius_form(self, params):
        """ln(k) must be linear in 1/T."""
        t1, t2 = 320.0, 360.0
        k1 = temperature_acceleration(t1, params)
        k2 = temperature_acceleration(t2, params)
        slope = np.log(k2 / k1) / (1 / t1 - 1 / t2)
        from repro.transistor import BOLTZMANN_EV

        assert slope == pytest.approx(params.ea / BOLTZMANN_EV)


class TestPrefactors:
    def test_mean_preserved(self, params):
        rng = np.random.default_rng(0)
        a = sample_prefactors(200_000, params, rng)
        assert a.mean() == pytest.approx(params.a_mean, rel=0.02)

    def test_cv_preserved(self, params):
        rng = np.random.default_rng(0)
        a = sample_prefactors(200_000, params, rng)
        assert a.std() / a.mean() == pytest.approx(params.a_cv, rel=0.05)

    def test_all_positive(self, params):
        rng = np.random.default_rng(1)
        assert np.all(sample_prefactors(10_000, params, rng) > 0)

    def test_zero_cv_is_deterministic(self):
        params = NbtiParameters(a_cv=0.0)
        rng = np.random.default_rng(0)
        a = sample_prefactors(100, params, rng)
        assert np.all(a == params.a_mean)


class TestRelaxedShift:
    def test_no_cycles_matches_plain(self, params):
        plain = float(bti_shift(1.0, 10.0, params))
        assert float(relaxed_shift(1.0, 10.0, params, relax_cycles=0)) == plain

    def test_relaxation_reduces_shift(self, params):
        plain = float(relaxed_shift(1.0, 10.0, params, relax_cycles=0))
        relaxed = float(relaxed_shift(1.0, 10.0, params, relax_cycles=12))
        assert relaxed < plain

    def test_more_cycles_more_recovery(self, params):
        shifts = [
            float(relaxed_shift(1.0, 10.0, params, relax_cycles=c))
            for c in (1, 4, 16, 64)
        ]
        assert shifts == sorted(shifts, reverse=True)

    def test_bounded_below_by_permanent_component(self, params):
        plain = float(relaxed_shift(1.0, 10.0, params, relax_cycles=0))
        deep = float(relaxed_shift(1.0, 10.0, params, relax_cycles=10_000))
        assert deep > (1 - params.recovery_fraction) * plain * 0.99

    def test_negative_cycles_rejected(self, params):
        with pytest.raises(ValueError):
            relaxed_shift(1.0, 10.0, params, relax_cycles=-1)

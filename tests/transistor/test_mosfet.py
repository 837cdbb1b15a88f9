"""Alpha-power-law device model: monotonicities and scaling laws."""

import numpy as np
import pytest

from repro.transistor import (
    T_REF_K,
    delay_sensitivity,
    drive_current,
    mobility_factor,
    ptm90,
    transition_delay,
    vth_at_temperature,
)


@pytest.fixture(scope="module")
def tech():
    return ptm90()


class TestVthTemperature:
    def test_reference_temperature_is_identity(self, tech):
        assert vth_at_temperature(0.25, T_REF_K, tech) == pytest.approx(0.25)

    def test_vth_drops_with_temperature(self, tech):
        hot = vth_at_temperature(0.25, T_REF_K + 60, tech)
        assert hot < 0.25

    def test_tc_scale_modulates_shift(self, tech):
        nominal = vth_at_temperature(0.25, T_REF_K + 60, tech)
        strong = vth_at_temperature(0.25, T_REF_K + 60, tech, tc_scale=2.0)
        assert (0.25 - strong) == pytest.approx(2.0 * (0.25 - nominal))

    def test_vectorised(self, tech):
        vth = np.full((3, 4), 0.25)
        out = vth_at_temperature(vth, T_REF_K + 10, tech)
        assert out.shape == (3, 4)
        assert np.all(out < 0.25)


class TestMobility:
    def test_unity_at_reference(self, tech):
        assert mobility_factor(T_REF_K, tech) == pytest.approx(1.0)

    def test_degrades_when_hot(self, tech):
        assert mobility_factor(T_REF_K + 60, tech) < 1.0

    def test_improves_when_cold(self, tech):
        assert mobility_factor(T_REF_K - 40, tech) > 1.0

    def test_rejects_nonpositive_temperature(self, tech):
        with pytest.raises(ValueError):
            mobility_factor(0.0, tech)


class TestDriveCurrent:
    def test_higher_vth_less_current(self, tech):
        assert drive_current(0.30, tech) < drive_current(0.20, tech)

    def test_alpha_power_scaling(self, tech):
        """Doubling overdrive multiplies current by 2**alpha."""
        v1 = tech.vdd - 0.2
        v2 = tech.vdd - 0.4
        i_small = drive_current(v2, tech)  # overdrive 0.4
        i_large = drive_current(v1, tech)  # overdrive 0.2
        assert i_small / i_large == pytest.approx(2**tech.alpha)

    def test_zero_overdrive_raises(self, tech):
        with pytest.raises(ValueError, match="overdrive"):
            drive_current(tech.vdd, tech)

    def test_nan_threshold_raises(self, tech):
        with pytest.raises(ValueError, match="overdrive"):
            drive_current(np.array([0.25, np.nan]), tech)

    def test_supply_override(self, tech):
        assert drive_current(0.25, tech, vdd=1.0) < drive_current(0.25, tech)


class TestTransitionDelay:
    def test_delay_in_picosecond_range(self, tech):
        t = transition_delay(tech.vth_n, tech)
        assert 1e-12 < float(t) < 1e-9

    def test_slower_when_hot(self, tech):
        """Mobility loss dominates the Vth drop at these parameters."""
        cold = transition_delay(0.25, tech, temperature_k=T_REF_K)
        hot = transition_delay(0.25, tech, temperature_k=T_REF_K + 60)
        assert hot > cold

    def test_slower_at_low_supply(self, tech):
        assert transition_delay(0.25, tech, vdd=1.05) > transition_delay(0.25, tech)

    def test_higher_vth_slower(self, tech):
        assert transition_delay(0.30, tech) > transition_delay(0.20, tech)

    def test_custom_load(self, tech):
        base = transition_delay(0.25, tech)
        heavy = transition_delay(0.25, tech, c_load=2 * tech.c_load)
        assert heavy == pytest.approx(2 * float(base))


class TestSensitivity:
    def test_first_order_sensitivity_predicts_delay_shift(self, tech):
        """d(ln t)/dVth from the analytic formula matches a finite diff."""
        sens = delay_sensitivity(tech)
        dv = 1e-4
        t0 = float(transition_delay(tech.vth_n, tech))
        t1 = float(transition_delay(tech.vth_n + dv, tech))
        measured = (t1 - t0) / (t0 * dv)
        assert measured == pytest.approx(sens, rel=1e-3)

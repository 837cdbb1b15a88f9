"""Mission profiles: bookkeeping of lifetime activity."""

import pytest

from repro.aging import SECONDS_PER_YEAR, MissionProfile, burn_in_mission, typical_mission


class TestValidation:
    def test_duty_bounds(self):
        with pytest.raises(ValueError):
            MissionProfile(eval_duty=1.5)
        with pytest.raises(ValueError):
            MissionProfile(eval_duty=-0.1)

    def test_temperature_positive(self):
        with pytest.raises(ValueError):
            MissionProfile(temperature_k=0.0)

    def test_frequency_positive(self):
        with pytest.raises(ValueError):
            MissionProfile(osc_frequency_hz=0.0)


class TestBookkeeping:
    def test_active_seconds(self):
        mission = MissionProfile(eval_duty=1e-6)
        assert mission.active_seconds(10.0) == pytest.approx(
            1e-6 * 10 * SECONDS_PER_YEAR
        )

    def test_transitions(self):
        mission = MissionProfile(eval_duty=1e-6, osc_frequency_hz=2e9)
        assert mission.transitions(1.0) == pytest.approx(
            2e9 * 1e-6 * SECONDS_PER_YEAR
        )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            MissionProfile().active_seconds(-1.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            MissionProfile().active_seconds(t)
        with pytest.raises(ValueError, match="finite"):
            MissionProfile().transitions(t)

    def test_with_eval_duty_copies(self):
        base = MissionProfile()
        busy = base.with_eval_duty(1e-3)
        assert busy.eval_duty == 1e-3
        assert busy.temperature_k == base.temperature_k
        assert base.eval_duty != 1e-3


class TestPresets:
    def test_typical_mission_is_rare_use(self):
        assert typical_mission().eval_duty < 1e-5

    def test_burn_in_is_hot(self):
        assert burn_in_mission().temperature_k > typical_mission().temperature_k

"""Unit tests for the current-sensing gain controller (section 4.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.gain_control import (
    CurrentSensingGainController,
    CurrentSensor,
    CurrentSensorSpec,
    conservative_gain_db,
    oracle_gain_db,
)
from repro.core.reflector import MoVRReflector
from repro.geometry.vectors import Vec2


def make_reflector(rx_proto=90.0, tx_proto=90.0):
    reflector = MoVRReflector(Vec2(4.7, 4.7), boresight_deg=-135.0)
    reflector.set_beams(
        reflector.prototype_to_azimuth(rx_proto),
        reflector.prototype_to_azimuth(tx_proto),
    )
    return reflector


class TestCurrentSensor:
    def test_reads_near_truth(self):
        reflector = make_reflector()
        reflector.amplifier.set_gain_db(20.0)
        sensor = CurrentSensor(reflector, rng=0)
        truth = reflector.current_draw_ma(-50.0)
        reading = sensor.read_ma(-50.0, num_samples=32)
        assert reading == pytest.approx(truth, abs=2.0)

    def test_quantization(self):
        spec = CurrentSensorSpec(noise_ma_rms=0.0, quantization_ma=5.0)
        reflector = make_reflector()
        sensor = CurrentSensor(reflector, spec=spec, rng=0)
        reading = sensor.read_ma(-50.0, num_samples=1)
        assert reading % 5.0 == pytest.approx(0.0, abs=1e-9)

    def test_full_scale_clamp(self):
        spec = CurrentSensorSpec(full_scale_ma=100.0)
        reflector = make_reflector()
        reflector.amplifier.set_gain_db(60.0)
        sensor = CurrentSensor(reflector, spec=spec, rng=0)
        assert sensor.read_ma(0.0) <= 100.0

    def test_sample_count_validated(self):
        sensor = CurrentSensor(make_reflector(), rng=0)
        with pytest.raises(ValueError):
            sensor.read_ma(-50.0, num_samples=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CurrentSensorSpec(noise_ma_rms=-1.0)
        with pytest.raises(ValueError):
            CurrentSensorSpec(full_scale_ma=0.0)


class TestCalibration:
    def test_result_is_stable(self):
        reflector = make_reflector()
        controller = CurrentSensingGainController(reflector, rng=1)
        result = controller.calibrate(input_power_dbm=-40.0)
        assert reflector.is_stable()
        assert not reflector.is_saturated_at(-40.0)
        assert result.final_gain_db == reflector.amplifier.gain_db

    def test_knee_detected_with_strong_input(self):
        """A strong input drives the amplifier into compression well
        below max gain, so the knee must be found."""
        reflector = make_reflector()
        controller = CurrentSensingGainController(reflector, rng=2)
        result = controller.calibrate(input_power_dbm=-25.0)
        assert result.knee_detected
        assert result.final_gain_db < reflector.amplifier.spec.max_gain_db

    def test_weak_input_reaches_max_gain(self):
        """With a very weak input and low leakage, nothing saturates
        and the controller tops out."""
        reflector = make_reflector()
        controller = CurrentSensingGainController(reflector, rng=3)
        result = controller.calibrate(input_power_dbm=-75.0)
        assert not result.knee_detected or result.final_gain_db > 50.0

    def test_traces_recorded(self):
        reflector = make_reflector()
        controller = CurrentSensingGainController(reflector, rng=4)
        result = controller.calibrate(input_power_dbm=-40.0)
        assert len(result.gain_trace_db) == len(result.current_trace_ma)
        assert len(result.gain_trace_db) == result.steps_taken + 1
        assert result.gain_trace_db == sorted(result.gain_trace_db)

    def test_backoff_applied(self):
        reflector = make_reflector()
        controller = CurrentSensingGainController(
            reflector, backoff_db=5.0, rng=5
        )
        result = controller.calibrate(input_power_dbm=-25.0)
        if result.knee_detected:
            knee_gain = result.gain_trace_db[-1]
            assert result.final_gain_db <= knee_gain - 5.0

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=45.0, max_value=135.0),
        st.floats(min_value=45.0, max_value=135.0),
        st.floats(min_value=-55.0, max_value=-30.0),
    )
    def test_never_leaves_amplifier_saturated(self, rx, tx, input_dbm):
        """The safety property of section 4.2: whatever the beam angles and
        input power, calibration lands on a stable, uncompressed point."""
        reflector = make_reflector(rx, tx)
        controller = CurrentSensingGainController(reflector, rng=6)
        controller.calibrate(input_power_dbm=input_dbm)
        assert reflector.is_stable()
        assert not reflector.is_saturated_at(input_dbm)

    def test_parameter_validation(self):
        reflector = make_reflector()
        with pytest.raises(ValueError):
            CurrentSensingGainController(reflector, step_db=0.0)
        with pytest.raises(ValueError):
            CurrentSensingGainController(reflector, jump_threshold_ma=0.0)


class TestStaticPolicies:
    def test_conservative_safe_everywhere(self):
        reflector = make_reflector()
        gain = conservative_gain_db(reflector)
        for rx in (40.0, 70.0, 100.0, 140.0):
            for tx in (40.0, 90.0, 140.0):
                r = make_reflector(rx, tx)
                r.amplifier.set_gain_db(gain)
                assert r.is_stable()

    def test_oracle_at_least_conservative(self):
        reflector = make_reflector()
        assert oracle_gain_db(reflector) >= conservative_gain_db(reflector) - 1e-9

    def test_oracle_with_input_respects_compression(self):
        reflector = make_reflector()
        gain = oracle_gain_db(reflector, input_power_dbm=-25.0)
        reflector.amplifier.set_gain_db(gain)
        assert not reflector.is_saturated_at(-25.0)

    def test_margin_validated(self):
        with pytest.raises(ValueError):
            conservative_gain_db(make_reflector(), margin_db=-1.0)

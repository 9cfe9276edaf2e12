"""Unit tests for the MoVR control protocol and coordinator."""

import pytest

from repro.control.bluetooth import BleConfig, BleLink
from repro.control.protocol import (
    MESSAGE_BYTES,
    ControlLog,
    CoordinatorState,
    MessageType,
    ReflectorCoordinator,
)
from repro.core.reflector import MoVRReflector
from repro.geometry.vectors import Vec2
from repro.link.beams import Codebook


def make_coordinator(loss_rate=0.0, rng=0):
    reflector = MoVRReflector(Vec2(4.7, 4.7), boresight_deg=-135.0)
    link = BleLink(BleConfig(loss_rate=loss_rate, jitter_s=0.0), rng=rng)
    return ReflectorCoordinator(reflector, link)


def planted_metric(peak_deg: float):
    return lambda angle: -abs(angle - peak_deg)


class TestControlLog:
    def test_accounting(self):
        log = ControlLog()
        log.record(MessageType.SET_BEAMS, 0.0, 0.01)
        log.record(MessageType.ACK, 0.01, 0.02)
        assert log.message_count == 2
        assert log.count_by_type()[MessageType.SET_BEAMS] == 1

    def test_every_message_type_has_a_size(self):
        assert set(MESSAGE_BYTES) == set(MessageType)


class TestAngleSearch:
    def test_finds_planted_peak(self):
        coordinator = make_coordinator()
        estimate = coordinator.run_angle_search(
            planted_metric(73.0), codebook=Codebook.uniform(40.0, 140.0, 1.0)
        )
        assert estimate == pytest.approx(73.0)
        assert coordinator.angle_estimate_deg == estimate

    def test_message_sequence(self):
        coordinator = make_coordinator()
        codebook = Codebook.uniform(40.0, 140.0, 10.0)
        coordinator.run_angle_search(planted_metric(90.0), codebook=codebook)
        counts = coordinator.log.count_by_type()
        assert counts[MessageType.MODULATE_ON] == 1
        assert counts[MessageType.MODULATE_OFF] == 1
        assert counts[MessageType.SET_BEAMS] == len(codebook)

    def test_one_ack_charged_per_codebook_entry(self):
        # The docstring promises one SET_BEAMS + ACK round per entry;
        # the ACK airtime must show up in the accounting.
        coordinator = make_coordinator()
        codebook = Codebook.uniform(40.0, 140.0, 10.0)
        coordinator.run_angle_search(planted_metric(90.0), codebook=codebook)
        counts = coordinator.log.count_by_type()
        assert counts[MessageType.ACK] == len(codebook)
        # Each entry costs at least two connection intervals now.
        assert coordinator.elapsed_s >= 2 * len(codebook) * 0.0075

    def test_empty_codebook_raises_value_error(self):
        coordinator = make_coordinator()
        with pytest.raises(ValueError, match="non-empty codebook"):
            coordinator.run_angle_search(planted_metric(90.0), codebook=())
        # No messages were charged for the rejected sweep.
        assert coordinator.log.message_count == 0

    def test_modulate_off_charged_on_mid_sweep_failure(self):
        # Without a retry policy the failure is terminal, but the off
        # command must still be attempted (or its loss recorded) so
        # the amplifier is not silently left toggling.  A link-down
        # window opening after MODULATE_ON makes the mid-sweep failure
        # deterministic.
        from repro.control.faults import FaultKind, FaultSchedule, FaultWindow

        reflector = MoVRReflector(Vec2(4.7, 4.7), boresight_deg=-135.0)
        faults = FaultSchedule(
            [FaultWindow(start_s=0.1, end_s=100.0, kind=FaultKind.LINK_DOWN)]
        )
        link = BleLink(
            BleConfig(loss_rate=0.0, jitter_s=0.0), rng=0, faults=faults
        )
        coordinator = ReflectorCoordinator(reflector, link)
        with pytest.raises(ConnectionError):
            coordinator.run_angle_search(
                planted_metric(90.0), codebook=Codebook.uniform(40.0, 140.0, 1.0)
            )
        counts = coordinator.log.count_by_type()
        assert counts[MessageType.MODULATE_ON] == 1
        delivered_off = counts.get(MessageType.MODULATE_OFF, 0) == 1
        assert delivered_off or coordinator.modulation_stuck

    def test_time_dominated_by_ble(self):
        coordinator = make_coordinator()
        codebook = Codebook.uniform(40.0, 140.0, 2.0)
        coordinator.run_angle_search(planted_metric(90.0), codebook=codebook)
        # 51 retunes x >= 7.5 ms each.
        assert coordinator.elapsed_s >= 51 * 0.0075

    def test_connection_loss_fails_cleanly(self):
        coordinator = make_coordinator(loss_rate=0.995, rng=5)
        with pytest.raises(ConnectionError):
            coordinator.run_angle_search(
                planted_metric(90.0), codebook=Codebook.uniform(40.0, 140.0, 1.0)
            )
        assert coordinator.state is CoordinatorState.FAILED

    def test_measurement_time_validated(self):
        coordinator = make_coordinator()
        with pytest.raises(ValueError):
            coordinator.run_angle_search(
                planted_metric(90.0), measurement_time_s=0.0
            )


class TestGainCalibration:
    def test_reaches_serving_state(self):
        coordinator = make_coordinator()
        result = coordinator.run_gain_calibration(input_power_dbm=-45.0)
        assert coordinator.state is CoordinatorState.SERVING
        assert coordinator.gain_result is result
        assert coordinator.reflector.is_stable()

    def test_messages_proportional_to_steps(self):
        coordinator = make_coordinator()
        result = coordinator.run_gain_calibration(input_power_dbm=-45.0)
        counts = coordinator.log.count_by_type()
        assert counts[MessageType.SET_GAIN] == result.steps_taken + 1
        assert counts[MessageType.CURRENT_REPORT] == result.steps_taken


class TestSteadyState:
    def test_beam_updates_require_serving(self):
        coordinator = make_coordinator()
        with pytest.raises(RuntimeError):
            coordinator.push_beam_update()
        coordinator.run_gain_calibration(input_power_dbm=-45.0)
        before = coordinator.log.message_count
        coordinator.push_beam_update()
        assert coordinator.log.message_count == before + 2

"""The MoVR control protocol: messages and the installation coordinator.

The AP orchestrates each reflector over BLE (section 4 of the paper):

1. **Angle search** — the AP commands the reflector to set both beams
   to a trial angle and toggle its amplifier at ``f2``; the AP measures
   the ``f1 + f2`` sideband and iterates (one BLE round trip per
   reflector retune).
2. **Gain calibration** — the AP commands gain steps; the reflector
   reports its current-sensor reading back.
3. **Steady state** — the AP pushes beam updates derived from VR
   tracking; the reflector acknowledges.

This module defines the message vocabulary, the per-reflector
coordinator state machine, and the cost accounting (messages, BLE
airtime, wall-clock) that the timing experiments report.

Fault handling: with a :class:`repro.control.recovery.RetryPolicy`
attached, a ``ConnectionError`` from the link does not fail the
coordinator.  It reconnects with exponential backoff, resumes an
interrupted angle sweep from the last acknowledged codebook entry
(never restarting from scratch), restores the reflector's modulation
state, and emits ``control_lost`` / ``control_recovered`` telemetry
events stamped with the control-plane clock.  Without a policy the
pre-existing fail-stop behavior is kept: the coordinator goes
``FAILED`` and the error propagates — but the amplifier's modulation
shutdown is still attempted (and charged) on the way out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import telemetry
from repro.control.bluetooth import BleLink
from repro.control.recovery import RecoveryEpisode, RetryPolicy
from repro.core.gain_control import CurrentSensingGainController, GainControlResult
from repro.core.reflector import MoVRReflector
from repro.link.beams import Codebook
from repro.utils.validation import require_positive


class MessageType(enum.Enum):
    """Control-plane message vocabulary."""

    SET_BEAMS = "set-beams"
    SET_GAIN = "set-gain"
    MODULATE_ON = "modulate-on"
    MODULATE_OFF = "modulate-off"
    READ_CURRENT = "read-current"
    CURRENT_REPORT = "current-report"
    ACK = "ack"


#: Approximate over-the-air size of each message type [bytes].
MESSAGE_BYTES: Dict[MessageType, int] = {
    MessageType.SET_BEAMS: 12,
    MessageType.SET_GAIN: 8,
    MessageType.MODULATE_ON: 6,
    MessageType.MODULATE_OFF: 6,
    MessageType.READ_CURRENT: 6,
    MessageType.CURRENT_REPORT: 10,
    MessageType.ACK: 4,
}


@dataclass(frozen=True)
class ControlMessage:
    """One control-plane message instance."""

    msg_type: MessageType
    send_time_s: float
    arrival_time_s: float

    @property
    def latency_s(self) -> float:
        return self.arrival_time_s - self.send_time_s


@dataclass
class ControlLog:
    """Accounting for a control-plane exchange."""

    messages: List[ControlMessage] = field(default_factory=list)

    def record(self, msg_type: MessageType, send_s: float, arrive_s: float) -> float:
        self.messages.append(
            ControlMessage(msg_type=msg_type, send_time_s=send_s, arrival_time_s=arrive_s)
        )
        return arrive_s

    @property
    def message_count(self) -> int:
        return len(self.messages)

    def count_by_type(self) -> Dict[MessageType, int]:
        counts: Dict[MessageType, int] = {}
        for m in self.messages:
            counts[m.msg_type] = counts.get(m.msg_type, 0) + 1
        return counts


class CoordinatorState(enum.Enum):
    """Lifecycle of one reflector in the AP's coordinator."""

    DISCOVERED = "discovered"
    ANGLE_SEARCH = "angle-search"
    GAIN_CALIBRATION = "gain-calibration"
    SERVING = "serving"
    RECOVERING = "recovering"
    FAILED = "failed"


class ReflectorCoordinator:
    """Runs the installation sequence for one reflector over BLE.

    All physics comes from callbacks supplied by the caller, keeping
    this class purely about *protocol timing and sequencing*:

    * ``measure_sideband(reflector_proto_deg) -> float`` — the AP's
      sideband power measurement with the reflector's beams at a trial
      angle (the AP side of section 4.1);
    * the gain controller runs against the actual reflector device.

    ``policy`` enables fault recovery (reconnect + resume); the
    ``on_control_lost`` / ``on_control_recovered`` callbacks (called
    with the control-plane clock) let a :class:`MoVRSystem` exclude
    and re-admit this reflector from handoff while its control plane
    is dark.
    """

    def __init__(
        self,
        reflector: MoVRReflector,
        link: BleLink,
        start_time_s: float = 0.0,
        policy: Optional[RetryPolicy] = None,
        on_control_lost: Optional[Callable[[float], None]] = None,
        on_control_recovered: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.reflector = reflector
        self.link = link
        self.state = CoordinatorState.DISCOVERED
        self.log = ControlLog()
        self.clock_s = start_time_s
        self.policy = policy
        self.on_control_lost = on_control_lost
        self.on_control_recovered = on_control_recovered
        self.angle_estimate_deg: Optional[float] = None
        self.gain_result: Optional[GainControlResult] = None
        #: Is the reflector's amplifier currently toggling at ``f2``?
        self.modulating = False
        #: Set when a MODULATE_OFF could not be delivered: the
        #: amplifier keeps toggling with nobody in control (the leak
        #: this coordinator otherwise prevents).
        self.modulation_stuck = False
        #: Successful reconnections, in order.
        self.recoveries: List[RecoveryEpisode] = []
        #: Codebook entries acknowledged by the reflector in the most
        #: recent sweep — where a recovery resumes from.
        self.last_acked_index = 0

    # ------------------------------------------------------------------

    def _send(self, msg_type: MessageType) -> None:
        arrival = self.link.delivery_time_s(self.clock_s, MESSAGE_BYTES[msg_type])
        self.clock_s = self.log.record(msg_type, self.clock_s, arrival)

    def _recover(self) -> None:
        """Reconnect with exponential backoff after a link loss.

        Raises ``ConnectionError`` (and goes ``FAILED``) once the
        policy's attempt budget is exhausted.
        """
        policy = self.policy
        if policy is None:
            raise AssertionError("_recover requires a retry policy")
        cfg = self.link.config
        # Time burned *detecting* the failure: the exhausted
        # retransmission budget, one attempt per connection event.
        self.clock_s += (cfg.max_retransmissions + 1) * cfg.connection_interval_s
        lost_t = self.clock_s
        prior_state = self.state
        self.state = CoordinatorState.RECOVERING
        telemetry.emit(
            telemetry.EventKind.CONTROL_LOST,
            t_s=lost_t,
            reflector=self.reflector.name,
            during=prior_state.value,
        )
        if self.on_control_lost is not None:
            self.on_control_lost(lost_t)
        for attempt in range(1, policy.max_reconnect_attempts + 1):
            self.clock_s += policy.backoff_s(attempt)
            try:
                self.clock_s = self.link.try_reconnect(self.clock_s)
            except ConnectionError:
                continue
            episode = RecoveryEpisode(
                lost_t_s=lost_t, recovered_t_s=self.clock_s, attempts=attempt
            )
            self.recoveries.append(episode)
            telemetry.emit(
                telemetry.EventKind.CONTROL_RECOVERED,
                t_s=self.clock_s,
                reflector=self.reflector.name,
                downtime_s=episode.downtime_s,
                attempts=attempt,
            )
            if self.on_control_recovered is not None:
                self.on_control_recovered(self.clock_s)
            self.state = prior_state
            return
        self.state = CoordinatorState.FAILED
        raise ConnectionError(
            f"control-plane recovery exhausted after "
            f"{policy.max_reconnect_attempts} reconnect attempts"
        )

    def _send_with_recovery(self, msg_type: MessageType) -> None:
        """Send, reconnecting (policy permitting) until it goes through.

        A retried command is charged again — the reflector never saw
        the lost copy, so the airtime accounting stays honest.
        """
        while True:
            try:
                self._send(msg_type)
                return
            except ConnectionError:
                if self.policy is None:
                    self.state = CoordinatorState.FAILED
                    raise
                self._recover()

    def _shutdown_modulation(self) -> None:
        """Best-effort MODULATE_OFF — always attempted, always charged.

        A mid-sweep failure must not leave the amplifier toggling
        forever: the off command is sent on the way out of every
        sweep, and if the link is dark its loss is modeled explicitly
        (``modulation_stuck``) rather than silently skipped.
        """
        if not self.modulating:
            return
        try:
            self._send(MessageType.MODULATE_OFF)
            self.modulating = False
            return
        except ConnectionError:
            if self.policy is None or self.state is CoordinatorState.FAILED:
                self.modulation_stuck = True
                return
        try:
            self._recover()
            self._send(MessageType.MODULATE_OFF)
            self.modulating = False
        except ConnectionError:
            self.modulation_stuck = True

    def run_angle_search(
        self,
        measure_sideband: Callable[[float], float],
        codebook: Optional[Codebook] = None,
        measurement_time_s: float = 0.0005,
    ) -> float:
        """Sweep the reflector's angle over BLE; returns the estimate.

        One SET_BEAMS command + ACK reply round per codebook entry
        (both charged to the BLE link), with modulation switched on
        for the sweep — the dominant cost of installation.

        Raises ``ValueError`` on an empty codebook.  With a retry
        policy attached, a dropped connection is re-established and
        the sweep resumes from the last acknowledged entry; without
        one, ``ConnectionError`` propagates (state ``FAILED``), but
        the modulation shutdown is still attempted in a ``finally``
        path so the amplifier is not left toggling by a clean exit.
        """
        require_positive(measurement_time_s, "measurement_time_s")
        if codebook is None:
            codebook = Codebook.uniform(40.0, 140.0, 1.0)
        entries = list(codebook)
        if not entries:
            raise ValueError("angle search requires a non-empty codebook")
        self.state = CoordinatorState.ANGLE_SEARCH
        self.last_acked_index = 0
        faults = self.link.faults
        best_angle, best_metric = None, float("-inf")
        applied_angle: Optional[float] = None
        try:
            while self.last_acked_index < len(entries):
                if not self.modulating:
                    self._send_with_recovery(MessageType.MODULATE_ON)
                    self.modulating = True
                angle = entries[self.last_acked_index]
                self._send_with_recovery(MessageType.SET_BEAMS)
                # A stuck reflector ACKs but does not retune: the
                # measurement then sees the previously applied angle.
                if faults is None or not faults.stuck_at(self.clock_s):
                    applied_angle = angle
                self._send_with_recovery(MessageType.ACK)
                self.last_acked_index += 1
                self.clock_s += measurement_time_s
                metric = measure_sideband(
                    applied_angle if applied_angle is not None else angle
                )
                if metric > best_metric:
                    best_angle, best_metric = angle, metric
        except ConnectionError:
            self.state = CoordinatorState.FAILED
            raise
        finally:
            self._shutdown_modulation()
        self.angle_estimate_deg = best_angle
        return best_angle

    def run_gain_calibration(
        self,
        input_power_dbm: float,
        controller: Optional[CurrentSensingGainController] = None,
    ) -> GainControlResult:
        """Run the section 4.2 loop, charging BLE time per gain step.

        Each step is a SET_GAIN command plus a CURRENT_REPORT reply.
        """
        self.state = CoordinatorState.GAIN_CALIBRATION
        controller = (
            controller
            if controller is not None
            else CurrentSensingGainController(self.reflector)
        )
        try:
            result = controller.calibrate(input_power_dbm)
            for _ in range(result.steps_taken):
                self._send_with_recovery(MessageType.SET_GAIN)
                self._send_with_recovery(MessageType.CURRENT_REPORT)
            # The final backoff command.
            self._send_with_recovery(MessageType.SET_GAIN)
            self._send_with_recovery(MessageType.ACK)
        except ConnectionError:
            self.state = CoordinatorState.FAILED
            raise
        self.gain_result = result
        self.state = CoordinatorState.SERVING
        return result

    def push_beam_update(self) -> None:
        """Steady-state tracking update (SET_BEAMS + ACK)."""
        if self.state is not CoordinatorState.SERVING:
            raise RuntimeError(
                f"cannot push beam updates in state {self.state.value}"
            )
        try:
            self._send_with_recovery(MessageType.SET_BEAMS)
            self._send_with_recovery(MessageType.ACK)
        except ConnectionError:
            self.state = CoordinatorState.FAILED
            raise

    @property
    def elapsed_s(self) -> float:
        return self.clock_s

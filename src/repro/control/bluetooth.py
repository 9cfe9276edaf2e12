"""Bluetooth LE control-channel model.

"MoVR has a bluetooth link with the AP to exchange control
information. Our prototype uses an Arduino to run its control
protocol." (section 4 of the paper.)

The control channel matters for system timing: every angle-search probe
requires telling the reflector to retune (a BLE message), so the
control link's latency — not the phase shifters' sub-microsecond
settling — dominates calibration time.  The model covers connection-
event scheduling (BLE transmits only at connection-interval
boundaries), per-message jitter, loss with retransmission, and
scheduled fault windows (:mod:`repro.control.faults`) layered on top
of the i.i.d. loss model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.control.faults import FaultSchedule
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import (
    require_non_negative,
    require_positive,
    require_probability,
)

#: Tolerance (in connection intervals) for snapping a send time to the
#: connection-event boundary it sits on.  Accumulated float adds leave
#: a send time an ulp above the boundary it mathematically equals;
#: without snapping, ``ceil`` then charges a spurious full interval.
#: 1e-6 of a 7.5 ms interval is 7.5 ns — far below anything the model
#: resolves, far above any accumulated rounding error.
_BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
class BleConfig:
    """BLE connection parameters.

    The 7.5 ms default connection interval is BLE's minimum — the
    right choice for a latency-sensitive control plane.  ``loss_rate``
    models 2.4 GHz interference; lost packets retransmit at the next
    connection event.  ``reconnect_setup_s`` is the cost of
    re-establishing a dropped connection (advertising + connection
    request handshake).
    """

    connection_interval_s: float = 0.0075
    jitter_s: float = 0.0005
    loss_rate: float = 0.02
    max_retransmissions: int = 8
    payload_bytes_per_event: int = 244
    reconnect_setup_s: float = 0.03

    def __post_init__(self) -> None:
        require_positive(self.connection_interval_s, "connection_interval_s")
        require_non_negative(self.jitter_s, "jitter_s")
        require_probability(self.loss_rate, "loss_rate")
        if self.max_retransmissions < 0:
            raise ValueError("max_retransmissions must be non-negative")
        if self.payload_bytes_per_event <= 0:
            raise ValueError("payload_bytes_per_event must be positive")
        require_non_negative(self.reconnect_setup_s, "reconnect_setup_s")


class BleLink:
    """A point-to-point BLE control link with realistic timing.

    ``faults`` overlays deterministic fault windows on the i.i.d.
    loss model: inside a ``LINK_DOWN`` window every connection event
    is lost (and reconnection attempts fail); inside a ``BURST_LOSS``
    window the per-event loss probability is raised to the window's.
    """

    def __init__(
        self,
        config: BleConfig = BleConfig(),
        rng: RngLike = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        self.config = config
        self.faults = faults
        self._rng = make_rng(rng)
        self.messages_sent = 0
        self.retransmissions = 0
        self.reconnects = 0

    def _loss_rate_at(self, t_s: float) -> float:
        if self.faults is None:
            return self.config.loss_rate
        return self.faults.loss_rate_at(t_s, self.config.loss_rate)

    def _next_event_s(self, send_time_s: float) -> float:
        """The connection-event boundary at or after ``send_time_s``,
        snapping within :data:`_BOUNDARY_TOL` of a boundary below."""
        interval = self.config.connection_interval_s
        return math.ceil(send_time_s / interval - _BOUNDARY_TOL) * interval

    def delivery_time_s(self, send_time_s: float, message_bytes: int = 20) -> float:
        """When a message handed to the radio at ``send_time_s`` arrives.

        The message waits for the next connection event, may lose a few
        events to interference, and needs multiple events if larger
        than one event's payload.

        Raises ``ConnectionError`` if retransmissions are exhausted —
        callers treat this as a control-plane failure and re-establish
        (see :meth:`try_reconnect` and the coordinator's retry policy).
        """
        if message_bytes <= 0:
            raise ValueError("message_bytes must be positive")
        interval = self.config.connection_interval_s
        next_event = self._next_event_s(send_time_s)
        events_needed = math.ceil(message_bytes / self.config.payload_bytes_per_event)
        delivered = next_event
        transmitted = 0
        attempts = 0
        while transmitted < events_needed:
            # The attempt occupies the connection event starting at
            # ``delivered``; fault windows are evaluated at that time.
            if self._rng.random() < self._loss_rate_at(delivered):
                attempts += 1
                self.retransmissions += 1
                if attempts > self.config.max_retransmissions:
                    raise ConnectionError(
                        "BLE control link lost: retransmission budget exhausted"
                    )
            else:
                transmitted += 1
            delivered += interval
        self.messages_sent += 1
        jitter = abs(float(self._rng.normal(0.0, self.config.jitter_s)))
        return delivered + jitter

    def try_reconnect(self, at_time_s: float) -> float:
        """Re-establish a dropped connection starting at ``at_time_s``.

        Returns the time the link is usable again (handshake charged).
        Raises ``ConnectionError`` while a ``LINK_DOWN`` fault window
        is active — the caller backs off and retries per its
        :class:`repro.control.recovery.RetryPolicy`.
        """
        require_non_negative(at_time_s, "at_time_s")
        if self.faults is not None and self.faults.link_down_at(at_time_s):
            raise ConnectionError(
                "BLE reconnection failed: link-down fault window active"
            )
        self.reconnects += 1
        return at_time_s + self.config.reconnect_setup_s

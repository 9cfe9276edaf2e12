"""The MoVR programmable mmWave reflector (section 4, Figs. 4-6 of the paper).

A reflector is two phased arrays joined by a variable-gain amplifier —
no transmit or receive basebands.  It captures the AP's signal on its
receive array, amplifies it, and re-radiates it from its transmit
array toward the headset, with both beam angles independently
programmable (unlike a mirror, incidence need not equal reflection).

The class models the complete analog signal path, including the
positive feedback loop through the TX-to-RX leakage: closed-loop gain
peaking as the loop approaches instability, output saturation, and the
supply-current signature that MoVR's gain controller senses.

Two angle conventions coexist:

* **scene azimuths** — absolute directions in the room frame, used by
  the controller to aim at the AP/headset;
* **prototype angles** — degrees in [40, 140] with 90 = broadside,
  used by the leakage model and matching the paper's Figs. 7/8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.leakage import (
    BROADSIDE_DEG,
    MAX_ANGLE_DEG,
    MIN_ANGLE_DEG,
    ReflectorLeakageModel,
)
from repro.geometry.vectors import Vec2, bearing_deg
from repro.phy.amplifier import (
    MOVR_AMPLIFIER,
    AmplifierSpec,
    VariableGainAmplifier,
    closed_loop_gain_db,
    closed_loop_gain_db_batch,
    loop_is_stable,
)
from repro.phy.antenna import PhasedArray, PhasedArrayConfig
from repro.phy.noise import ReceiverNoise
from repro.utils.db import db_sum_powers
from repro.utils.units import (
    IEEE80211AD_BANDWIDTH_HZ,
    angle_difference_deg,
    angle_difference_deg_batch,
)

#: The reflector arrays scan +/-50 degrees, i.e. prototype angles 40-140
#: (the sweep range of Figs. 7 and 8 of the paper).
REFLECTOR_SCAN_DEG = (MAX_ANGLE_DEG - MIN_ANGLE_DEG) / 2.0

#: Array configuration for the reflector boards.
REFLECTOR_ARRAY = PhasedArrayConfig(max_scan_deg=REFLECTOR_SCAN_DEG)


@dataclass(frozen=True)
class ReflectorState:
    """A snapshot of a reflector's control state."""

    rx_azimuth_deg: float
    tx_azimuth_deg: float
    gain_db: float
    modulation_on: bool


class MoVRReflector:
    """One wall-mounted MoVR reflector.

    ``boresight_deg`` is the outward wall-normal direction of the
    mounting position; both arrays share it.
    """

    def __init__(
        self,
        position: Vec2,
        boresight_deg: float,
        array: PhasedArrayConfig = REFLECTOR_ARRAY,
        amplifier: AmplifierSpec = MOVR_AMPLIFIER,
        leakage: Optional[ReflectorLeakageModel] = None,
        name: str = "movr",
    ) -> None:
        self.position = position
        self.boresight_deg = float(boresight_deg)
        self.name = name
        self.rx_array = PhasedArray(array, boresight_deg=self.boresight_deg)
        self.tx_array = PhasedArray(array, boresight_deg=self.boresight_deg)
        self.amplifier = VariableGainAmplifier(amplifier)
        self.leakage_model = (
            leakage if leakage is not None else ReflectorLeakageModel(array=array)
        )
        # The amplifier's front-end noise (what an amplify-and-forward
        # relay adds to the signal it forwards).
        self.front_end_noise = ReceiverNoise(
            bandwidth_hz=IEEE80211AD_BANDWIDTH_HZ,
            noise_figure_db=amplifier.noise_figure_db,
        )
        self.modulation_on = False

    # -- angle conventions ------------------------------------------------

    def azimuth_to_prototype(self, azimuth_deg: float) -> float:
        """Scene azimuth -> prototype angle (90 = broadside), clipped."""
        relative = angle_difference_deg(azimuth_deg, self.boresight_deg)
        proto = BROADSIDE_DEG + relative
        return min(MAX_ANGLE_DEG, max(MIN_ANGLE_DEG, proto))

    def azimuth_to_prototype_batch(self, azimuth_deg) -> np.ndarray:
        """Vectorized :meth:`azimuth_to_prototype`."""
        relative = angle_difference_deg_batch(azimuth_deg, self.boresight_deg)
        return np.clip(BROADSIDE_DEG + relative, MIN_ANGLE_DEG, MAX_ANGLE_DEG)

    def prototype_to_azimuth(self, proto_deg: float) -> float:
        """Prototype angle -> scene azimuth."""
        return self.boresight_deg + (proto_deg - BROADSIDE_DEG)

    # -- beam control -------------------------------------------------------

    def set_beams(self, rx_azimuth_deg: float, tx_azimuth_deg: float) -> Tuple[float, float]:
        """Steer receive and transmit beams to scene azimuths.

        Returns the achieved azimuths (after scan clipping).
        """
        achieved_rx = self.rx_array.steer_to(rx_azimuth_deg)
        achieved_tx = self.tx_array.steer_to(tx_azimuth_deg)
        return achieved_rx, achieved_tx

    def point_at(self, rx_target: Vec2, tx_target: Vec2) -> Tuple[float, float]:
        """Aim the receive beam at one point and the transmit beam at
        another (AP and headset, respectively)."""
        return self.set_beams(
            bearing_deg(self.position, rx_target),
            bearing_deg(self.position, tx_target),
        )

    def aim(self, rx_target: Vec2, tx_target: Vec2) -> Tuple[float, float]:
        """The (rx, tx) beams :meth:`point_at` would set, without
        setting them."""
        return (
            self.rx_array.achieved_deg(bearing_deg(self.position, rx_target)),
            self.tx_array.achieved_deg(bearing_deg(self.position, tx_target)),
        )

    @property
    def beams(self) -> Tuple[float, float]:
        """The (rx, tx) beam azimuths the arrays hold now."""
        return self.rx_array.steering_deg, self.tx_array.steering_deg

    @property
    def rx_azimuth_deg(self) -> float:
        return self.rx_array.steering_deg

    @property
    def tx_azimuth_deg(self) -> float:
        return self.tx_array.steering_deg

    def can_serve(self, rx_target: Vec2, tx_target: Vec2) -> bool:
        """Are both targets within the arrays' scan range?"""
        return self.rx_array.can_steer_to(
            bearing_deg(self.position, rx_target)
        ) and self.tx_array.can_steer_to(bearing_deg(self.position, tx_target))

    def state(self) -> ReflectorState:
        return ReflectorState(
            rx_azimuth_deg=self.rx_azimuth_deg,
            tx_azimuth_deg=self.tx_azimuth_deg,
            gain_db=self.amplifier.gain_db,
            modulation_on=self.modulation_on,
        )

    # -- feedback loop ------------------------------------------------------
    #
    # ``beams`` is an (rx, tx) azimuth pair to evaluate instead of the
    # beams the arrays hold (see :meth:`aim`); the reflector itself is
    # never re-steered.

    def leakage_db(self, beams: Optional[Tuple[float, float]] = None) -> float:
        """TX->RX coupling at the held (or given) beams (negative dB)."""
        rx, tx = self.beams if beams is None else beams
        return self.leakage_model.leakage_db(
            self.azimuth_to_prototype(tx), self.azimuth_to_prototype(rx)
        )

    def is_stable(self, beams: Optional[Tuple[float, float]] = None) -> bool:
        """Is the feedback loop stable at the current gain and the held
        (or given) beams?"""
        return loop_is_stable(self.amplifier.gain_db, self.leakage_db(beams))

    def effective_gain_db(
        self, beams: Optional[Tuple[float, float]] = None
    ) -> Optional[float]:
        """Closed-loop amplifier gain including feedback peaking.

        ``None`` when the loop is unstable (the amplifier would emit
        garbage, not an amplified copy of the input).
        """
        leak = self.leakage_db(beams)
        gain = self.amplifier.gain_db
        if not loop_is_stable(gain, leak):
            return None
        return closed_loop_gain_db(gain, leak)

    def output_power_dbm(
        self, input_power_dbm: float, beams: Optional[Tuple[float, float]] = None
    ) -> float:
        """Amplifier output power for a given power at the RX array port.

        Includes closed-loop peaking of both the signal and the
        amplifier's own front-end noise (near instability the
        recirculating noise alone drives the amplifier into
        compression — the current signature the gain controller
        detects), soft-capped at the amplifier's saturation power.
        """
        effective = self.effective_gain_db(beams)
        if effective is None:
            # Self-oscillation: output pinned at saturation.
            return self.amplifier.spec.psat_dbm
        signal_out = input_power_dbm + effective
        noise_out = self.front_end_noise.noise_floor_dbm + effective
        linear_total = db_sum_powers([signal_out, noise_out])
        # Re-apply the saturation cap on the combined power.
        psat = self.amplifier.spec.psat_dbm
        lin = 10.0 ** (linear_total / 10.0)
        sat = 10.0 ** (psat / 10.0)
        out = lin / (1.0 + (lin / sat) ** 2.0) ** 0.5
        return 10.0 * math.log10(out)

    def is_saturated_at(self, input_power_dbm: float) -> bool:
        """Is the amplifier compressing (or oscillating) at this input?

        True when the loop is unstable, or when the closed-loop output
        has been driven past the 1 dB compression point — either way
        the forwarded waveform is distorted and unusable for 802.11ad
        modulation.
        """
        if not self.is_stable():
            return True
        return self.output_power_dbm(input_power_dbm) > self.amplifier.spec.output_p1db_dbm

    def current_draw_ma(self, input_power_dbm: float) -> float:
        """DC supply current at the present operating point."""
        if not self.is_stable():
            return self.amplifier.spec.saturation_current_ma
        return self.amplifier.current_draw_ma(self.output_power_dbm(input_power_dbm))

    # -- relay gain (for the link budget) ------------------------------------

    def through_gain_db_batch(
        self,
        from_azimuth_deg,
        to_azimuth_deg,
        rx_steer_azimuth_deg=None,
        tx_steer_azimuth_deg=None,
    ) -> np.ndarray:
        """End-to-end power gain of the reflector between two directions.

        RX-array gain toward the incoming signal, plus the closed-loop
        amplifier gain, plus TX-array gain toward the outgoing
        direction, over broadcast grids of directions and trial beam
        settings.  ``rx_steer_azimuth_deg``/``tx_steer_azimuth_deg``
        default to the current beam state; passing arrays sweeps
        candidate steerings without mutating the reflector.  Entries
        whose leakage would make the loop unstable come back as ``NaN``
        — callers decide what an oscillating probe is worth.
        """
        if rx_steer_azimuth_deg is None:
            rx_steer_azimuth_deg = self.rx_array.steering_deg
        if tx_steer_azimuth_deg is None:
            tx_steer_azimuth_deg = self.tx_array.steering_deg
        achieved_rx = self.rx_array.steer_to_batch(rx_steer_azimuth_deg)
        achieved_tx = self.tx_array.steer_to_batch(tx_steer_azimuth_deg)
        rx_gain = self.rx_array.gain_dbi_batch(from_azimuth_deg, steer_deg=achieved_rx)
        tx_gain = self.tx_array.gain_dbi_batch(to_azimuth_deg, steer_deg=achieved_tx)
        leak = self.leakage_model.leakage_db_batch(
            self.azimuth_to_prototype_batch(achieved_tx),
            self.azimuth_to_prototype_batch(achieved_rx),
        )
        effective = closed_loop_gain_db_batch(self.amplifier.gain_db, leak)
        return rx_gain + effective + tx_gain

    def __repr__(self) -> str:
        return (
            f"MoVRReflector({self.name!r}, pos=({self.position.x:.2f}, "
            f"{self.position.y:.2f}), boresight={self.boresight_deg:.1f} deg, "
            f"gain={self.amplifier.gain_db:.1f} dB)"
        )

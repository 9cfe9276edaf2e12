"""Headset trajectory prediction for latency-compensated beam steering.

The VR system reports poses at 90 Hz, but by the time a beam command
crosses the BLE control plane and the phase shifters settle, the head
has moved on.  A constant-velocity Kalman filter over the pose stream
lets the controller steer at where the headset *will be* when the
command lands — the missing piece that makes section 6's "leverage the
tracking information" fast path robust to control latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.geometry.mobility import PoseSample
from repro.geometry.vectors import Vec2
from repro.utils.units import wrap_angle_deg
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class PredictedPose:
    """A pose prediction with its horizon."""

    position: Vec2
    yaw_deg: float
    horizon_s: float


class PoseKalmanFilter:
    """Constant-velocity Kalman filter over (x, y, yaw).

    State is ``[x, y, yaw, vx, vy, vyaw]``.  Yaw is tracked unwrapped
    internally (the filter sees a continuous angle) and wrapped on
    output.  Process noise reflects VR motion: heads accelerate hard
    (yaw) while bodies drift gently (position).
    """

    def __init__(
        self,
        position_process_noise: float = 0.5,
        yaw_process_noise_deg: float = 200.0,
        position_obs_noise_m: float = 0.002,
        yaw_obs_noise_deg: float = 0.2,
    ) -> None:
        require_positive(position_process_noise, "position_process_noise")
        require_positive(yaw_process_noise_deg, "yaw_process_noise_deg")
        require_positive(position_obs_noise_m, "position_obs_noise_m")
        require_positive(yaw_obs_noise_deg, "yaw_obs_noise_deg")
        self._q_pos = position_process_noise
        self._q_yaw = yaw_process_noise_deg
        self._r = np.diag(
            [position_obs_noise_m**2, position_obs_noise_m**2, yaw_obs_noise_deg**2]
        )
        self._state: Optional[np.ndarray] = None
        self._covariance: Optional[np.ndarray] = None
        self._last_time_s: Optional[float] = None
        self._unwrapped_yaw: Optional[float] = None

    # ------------------------------------------------------------------

    def _transition(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        f = np.eye(6)
        for i in range(3):
            f[i, i + 3] = dt
        # White-acceleration process noise, block per coordinate.
        q = np.zeros((6, 6))
        for i, sigma in enumerate((self._q_pos, self._q_pos, self._q_yaw)):
            s2 = sigma**2
            q[i, i] = s2 * dt**4 / 4.0
            q[i, i + 3] = q[i + 3, i] = s2 * dt**3 / 2.0
            q[i + 3, i + 3] = s2 * dt**2
        return f, q

    def update(self, pose: PoseSample) -> None:
        """Incorporate one tracking sample."""
        if self._state is None:
            self._state = np.array(
                [pose.position.x, pose.position.y, pose.yaw_deg, 0.0, 0.0, 0.0]
            )
            self._covariance = np.diag([0.01, 0.01, 1.0, 1.0, 1.0, 100.0])
            self._last_time_s = pose.time_s
            self._unwrapped_yaw = pose.yaw_deg
            return
        dt = pose.time_s - self._last_time_s
        if dt <= 0.0:
            raise ValueError("pose samples must be strictly increasing in time")
        # Unwrap the yaw observation relative to the running angle.
        delta = wrap_angle_deg(pose.yaw_deg - self._unwrapped_yaw)
        self._unwrapped_yaw += delta
        observation = np.array(
            [pose.position.x, pose.position.y, self._unwrapped_yaw]
        )
        f, q = self._transition(dt)
        predicted = f @ self._state
        covariance = f @ self._covariance @ f.T + q
        h = np.zeros((3, 6))
        h[0, 0] = h[1, 1] = h[2, 2] = 1.0
        innovation = observation - h @ predicted
        s = h @ covariance @ h.T + self._r
        gain = covariance @ h.T @ np.linalg.inv(s)
        self._state = predicted + gain @ innovation
        self._covariance = (np.eye(6) - gain @ h) @ covariance
        self._last_time_s = pose.time_s

    def predict(self, horizon_s: float) -> PredictedPose:
        """Extrapolate the pose ``horizon_s`` ahead of the last sample."""
        require_non_negative(horizon_s, "horizon_s")
        if self._state is None:
            raise RuntimeError("filter has no samples yet")
        f, _ = self._transition(horizon_s)
        state = f @ self._state
        return PredictedPose(
            position=Vec2(float(state[0]), float(state[1])),
            yaw_deg=wrap_angle_deg(float(state[2])),
            horizon_s=horizon_s,
        )

    @property
    def velocity(self) -> Vec2:
        if self._state is None:
            raise RuntimeError("filter has no samples yet")
        return Vec2(float(self._state[3]), float(self._state[4]))

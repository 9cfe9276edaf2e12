"""Player and bystander motion models.

VR-specific motion differs from the random-waypoint models of classic
mobility literature: players mostly stand inside a small play area,
translate slowly, but *rotate their head rapidly* (peak yaw rates of
several hundred degrees per second during gameplay).  These traces
drive the end-to-end experiments and the pose-assisted beam-tracking
extension of section 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.geometry.room import Room
from repro.geometry.vectors import Vec2
from repro.utils.rng import RngLike, make_rng
from repro.utils.units import wrap_angle_deg


@dataclass(frozen=True)
class PoseSample:
    """Headset pose at an instant: position and facing direction."""

    time_s: float
    position: Vec2
    yaw_deg: float


@dataclass(frozen=True)
class MotionTrace:
    """A time-ordered sequence of headset poses."""

    samples: Sequence[PoseSample]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a motion trace needs at least one sample")
        times = np.asarray([s.time_s for s in self.samples], dtype=float)
        if np.any(times[1:] <= times[:-1]):
            raise ValueError("trace samples must be strictly increasing in time")
        # pose_at() runs once per tick of every e2e/mobility experiment;
        # cache the sample times so each lookup is one binary search
        # instead of an O(n) list rebuild.  (object.__setattr__ because
        # the dataclass is frozen.)
        object.__setattr__(self, "_times", times)

    @property
    def duration_s(self) -> float:
        return self.samples[-1].time_s - self.samples[0].time_s

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[PoseSample]:
        return iter(self.samples)

    def pose_at(self, t: float) -> PoseSample:
        """Linear interpolation of pose at time ``t`` (clamped to ends)."""
        samples = self.samples
        if t <= samples[0].time_s:
            return samples[0]
        if t >= samples[-1].time_s:
            return samples[-1]
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        s0, s1 = samples[idx], samples[idx + 1]
        frac = (t - s0.time_s) / (s1.time_s - s0.time_s)
        position = s0.position + (s1.position - s0.position) * frac
        # Interpolate along the shorter arc, then re-wrap: a segment
        # straddling +-180 deg would otherwise return a yaw outside the
        # canonical range and downstream consumers would silently
        # depend on wrapping it themselves.
        dyaw = wrap_angle_deg(s1.yaw_deg - s0.yaw_deg)
        return PoseSample(
            time_s=t,
            position=position,
            yaw_deg=wrap_angle_deg(s0.yaw_deg + dyaw * frac),
        )

    def max_yaw_rate_deg_s(self) -> float:
        """Peak head-rotation rate over the trace."""
        best = 0.0
        for s0, s1 in zip(self.samples, self.samples[1:]):
            dt = s1.time_s - s0.time_s
            rate = abs(wrap_angle_deg(s1.yaw_deg - s0.yaw_deg)) / dt
            best = max(best, rate)
        return best


class VrPlayerMotion:
    """Generates realistic VR gameplay motion traces.

    The model superimposes three processes:

    * slow positional drift inside the play area (Ornstein-Uhlenbeck
      pull toward the play-area center, reflecting at its borders),
    * continuous small head jitter, and
    * occasional rapid "look-around" yaw sweeps (the motion that causes
      the blockage events in Fig. 2 of the paper).
    """

    def __init__(
        self,
        room: Room,
        play_center: Optional[Vec2] = None,
        play_radius_m: float = 1.2,
        walk_speed_m_s: float = 0.3,
        look_rate_deg_s: float = 240.0,
        look_event_rate_hz: float = 0.4,
        seed: RngLike = None,
    ) -> None:
        box = room.bounding_box()
        self.room = room
        self.play_center = play_center if play_center is not None else box.center
        if not room.contains(self.play_center, margin=0.2):
            raise ValueError("play_center must lie inside the room")
        self.play_radius_m = play_radius_m
        self.walk_speed_m_s = walk_speed_m_s
        self.look_rate_deg_s = look_rate_deg_s
        self.look_event_rate_hz = look_event_rate_hz
        self._rng = make_rng(seed)

    def generate(self, duration_s: float, sample_rate_hz: float = 90.0) -> MotionTrace:
        """Generate a trace at the headset's pose-tracking rate (90 Hz)."""
        if duration_s <= 0.0:
            raise ValueError("duration_s must be positive")
        if sample_rate_hz <= 0.0:
            raise ValueError("sample_rate_hz must be positive")
        rng = self._rng
        dt = 1.0 / sample_rate_hz
        n = max(2, int(round(duration_s * sample_rate_hz)) + 1)

        position = self.play_center
        yaw = float(rng.uniform(-180.0, 180.0))
        yaw_target = yaw
        velocity = Vec2.zero()
        # Ornstein-Uhlenbeck velocity: ~0.8 s correlation time with a
        # stationary speed distribution around half the walk speed.
        alpha = math.exp(-dt / 0.8)
        sigma = self.walk_speed_m_s * 0.55 * math.sqrt(max(1e-12, 1.0 - alpha**2))
        samples: List[PoseSample] = []
        for i in range(n):
            t = i * dt
            samples.append(PoseSample(time_s=t, position=position, yaw_deg=wrap_angle_deg(yaw)))
            pull = (self.play_center - position) * (0.8 * dt)
            noise = Vec2(rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)) * sigma
            velocity = velocity * alpha + noise + pull
            speed = velocity.norm
            if speed > self.walk_speed_m_s:
                velocity = velocity * (self.walk_speed_m_s / speed)
            position = position + velocity * dt
            # Keep the player inside the play area.
            offset = position - self.play_center
            if offset.norm > self.play_radius_m:
                position = self.play_center + offset.normalized() * self.play_radius_m
                velocity = Vec2.zero()
            # Head rotation: jitter plus Poisson look-around events.
            if rng.random() < self.look_event_rate_hz * dt:
                yaw_target = float(rng.uniform(-180.0, 180.0))
            delta = wrap_angle_deg(yaw_target - yaw)
            step = math.copysign(min(abs(delta), self.look_rate_deg_s * dt), delta)
            yaw = yaw + step + float(rng.normal(0.0, 2.0 * dt))
        return MotionTrace(samples=samples)


def linear_walk_trace(
    start: Vec2,
    end: Vec2,
    duration_s: float,
    sample_rate_hz: float = 30.0,
    yaw_deg: float = 0.0,
) -> MotionTrace:
    """A straight constant-speed walk — used for the bystander who
    crosses the AP-headset path in the body-blockage scenario."""
    if duration_s <= 0.0:
        raise ValueError("duration_s must be positive")
    n = max(2, int(round(duration_s * sample_rate_hz)) + 1)
    samples = [
        PoseSample(
            time_s=i * duration_s / (n - 1),
            position=start + (end - start) * (i / (n - 1)),
            yaw_deg=yaw_deg,
        )
        for i in range(n)
    ]
    return MotionTrace(samples=samples)


def head_turn_trace(
    position: Vec2,
    start_yaw_deg: float,
    end_yaw_deg: float,
    duration_s: float,
    sample_rate_hz: float = 90.0,
) -> MotionTrace:
    """A pure head rotation at fixed position (the Fig. 2 'user rotated
    her head' scenario)."""
    if duration_s <= 0.0:
        raise ValueError("duration_s must be positive")
    n = max(2, int(round(duration_s * sample_rate_hz)) + 1)
    sweep = wrap_angle_deg(end_yaw_deg - start_yaw_deg)
    samples = [
        PoseSample(
            time_s=i * duration_s / (n - 1),
            position=position,
            yaw_deg=wrap_angle_deg(start_yaw_deg + sweep * i / (n - 1)),
        )
        for i in range(n)
    ]
    return MotionTrace(samples=samples)

"""Unit tests for VR motion models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.mobility import (
    MotionTrace,
    PoseSample,
    VrPlayerMotion,
    head_turn_trace,
    linear_walk_trace,
)
from repro.geometry.room import rectangular_room
from repro.geometry.vectors import Vec2


class TestMotionTrace:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            MotionTrace(samples=[])

    def test_requires_increasing_time(self):
        samples = [
            PoseSample(0.0, Vec2(0, 0), 0.0),
            PoseSample(0.0, Vec2(1, 1), 0.0),
        ]
        with pytest.raises(ValueError):
            MotionTrace(samples=samples)

    def test_interpolation_midpoint(self):
        trace = MotionTrace(
            samples=[
                PoseSample(0.0, Vec2(0, 0), 0.0),
                PoseSample(1.0, Vec2(2, 0), 90.0),
            ]
        )
        mid = trace.pose_at(0.5)
        assert mid.position == Vec2(1, 0)
        assert mid.yaw_deg == pytest.approx(45.0)

    def test_interpolation_clamps(self):
        trace = MotionTrace(
            samples=[
                PoseSample(0.0, Vec2(0, 0), 0.0),
                PoseSample(1.0, Vec2(2, 0), 0.0),
            ]
        )
        assert trace.pose_at(-1.0).position == Vec2(0, 0)
        assert trace.pose_at(5.0).position == Vec2(2, 0)

    def test_yaw_interpolates_the_short_way(self):
        trace = MotionTrace(
            samples=[
                PoseSample(0.0, Vec2(0, 0), 170.0),
                PoseSample(1.0, Vec2(0, 0), -170.0),
            ]
        )
        mid = trace.pose_at(0.5)
        # 170 -> -170 crosses the wrap, not zero.
        assert abs(abs(mid.yaw_deg) - 180.0) < 1e-6

    def test_max_yaw_rate(self):
        trace = head_turn_trace(Vec2(1, 1), 0.0, 90.0, duration_s=0.5)
        assert trace.max_yaw_rate_deg_s() == pytest.approx(180.0, rel=0.05)

    def test_pose_at_matches_per_call_reference(self):
        """Regression for the cached-time-array fast path.

        The pre-cache implementation rebuilt the times list and
        re-searched it on every call; the cached lookup must return
        bit-identical interpolations.
        """
        from repro.geometry.room import rectangular_room
        from repro.utils.units import wrap_angle_deg

        trace = VrPlayerMotion(rectangular_room(5.0, 5.0), seed=11).generate(2.0)

        def reference(t):
            samples = trace.samples
            if t <= samples[0].time_s:
                return samples[0]
            if t >= samples[-1].time_s:
                return samples[-1]
            times = [s.time_s for s in samples]  # the old O(n) rebuild
            import numpy as np

            idx = int(np.searchsorted(times, t, side="right")) - 1
            s0, s1 = samples[idx], samples[idx + 1]
            frac = (t - s0.time_s) / (s1.time_s - s0.time_s)
            position = s0.position + (s1.position - s0.position) * frac
            dyaw = wrap_angle_deg(s1.yaw_deg - s0.yaw_deg)
            return PoseSample(
                time_s=t,
                position=position,
                yaw_deg=wrap_angle_deg(s0.yaw_deg + dyaw * frac),
            )

        for k in range(97):
            t = -0.1 + 2.3 * k / 96.0
            fast, slow = trace.pose_at(t), reference(t)
            assert fast.time_s == slow.time_s
            assert fast.position == slow.position
            assert fast.yaw_deg == slow.yaw_deg

    def test_interpolated_yaw_stays_canonical_across_wrap(self):
        # 170 -> -170 through the wrap: the naive s0 + dyaw*frac lands
        # at 175, 180 (= out of range), 185 (= way out of range)...
        trace = MotionTrace(
            samples=[
                PoseSample(0.0, Vec2(0, 0), 170.0),
                PoseSample(1.0, Vec2(0, 0), -170.0),
            ]
        )
        for frac in (0.25, 0.5, 0.75, 0.9):
            yaw = trace.pose_at(frac).yaw_deg
            assert -180.0 <= yaw < 180.0

    @settings(max_examples=200, deadline=None)
    @given(
        yaw0=st.floats(-180.0, 179.999),
        dyaw=st.floats(-179.0, 179.0),
        frac=st.floats(0.0, 1.0),
    )
    def test_yaw_wrap_property(self, yaw0, dyaw, frac):
        """Any segment — wrap-straddling or not — interpolates along
        the short arc and returns a canonical yaw."""
        from repro.utils.units import wrap_angle_deg

        yaw1 = wrap_angle_deg(yaw0 + dyaw)
        trace = MotionTrace(
            samples=[
                PoseSample(0.0, Vec2(0, 0), yaw0),
                PoseSample(1.0, Vec2(0, 0), yaw1),
            ]
        )
        yaw = trace.pose_at(frac).yaw_deg
        assert -180.0 <= yaw < 180.0
        # The interpolant must sit on the short arc from yaw0: its
        # angular offset from yaw0 is dyaw*frac (up to wrapping noise).
        offset = wrap_angle_deg(yaw - yaw0)
        assert offset == pytest.approx(wrap_angle_deg(dyaw * frac), abs=1e-6)


class TestGenerators:
    def test_linear_walk_endpoints(self):
        trace = linear_walk_trace(Vec2(0, 0), Vec2(4, 0), duration_s=2.0)
        assert trace.samples[0].position == Vec2(0, 0)
        assert trace.samples[-1].position == Vec2(4, 0)
        assert trace.duration_s == pytest.approx(2.0)

    def test_linear_walk_validates_duration(self):
        with pytest.raises(ValueError):
            linear_walk_trace(Vec2(0, 0), Vec2(1, 0), duration_s=0.0)

    def test_head_turn_fixed_position(self):
        trace = head_turn_trace(Vec2(2, 2), 0.0, 120.0, duration_s=1.0)
        assert all(s.position == Vec2(2, 2) for s in trace)
        assert trace.samples[0].yaw_deg == pytest.approx(0.0)
        assert trace.samples[-1].yaw_deg == pytest.approx(120.0)


class TestVrPlayerMotion:
    def test_deterministic_given_seed(self):
        room = rectangular_room(5.0, 5.0)
        t1 = VrPlayerMotion(room, seed=1).generate(2.0)
        t2 = VrPlayerMotion(room, seed=1).generate(2.0)
        assert all(
            a.position == b.position and a.yaw_deg == b.yaw_deg
            for a, b in zip(t1, t2)
        )

    def test_stays_in_play_area(self):
        room = rectangular_room(5.0, 5.0)
        motion = VrPlayerMotion(room, play_radius_m=1.0, seed=2)
        trace = motion.generate(5.0)
        center = room.bounding_box().center
        for sample in trace:
            assert sample.position.distance_to(center) <= 1.0 + 1e-6

    def test_head_rotation_bounded_by_look_rate(self):
        room = rectangular_room(5.0, 5.0)
        motion = VrPlayerMotion(room, look_rate_deg_s=240.0, seed=3)
        trace = motion.generate(5.0)
        assert trace.max_yaw_rate_deg_s() <= 400.0  # rate + jitter

    def test_sample_rate_respected(self):
        room = rectangular_room(5.0, 5.0)
        trace = VrPlayerMotion(room, seed=4).generate(1.0, sample_rate_hz=90.0)
        assert len(trace) == 91

    def test_play_center_must_be_inside(self):
        room = rectangular_room(5.0, 5.0)
        with pytest.raises(ValueError):
            VrPlayerMotion(room, play_center=Vec2(10, 10))

    def test_bad_duration_rejected(self):
        room = rectangular_room(5.0, 5.0)
        with pytest.raises(ValueError):
            VrPlayerMotion(room, seed=0).generate(0.0)

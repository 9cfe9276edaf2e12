"""Unit tests for the pose Kalman filter."""

import pytest

from repro.core.prediction import PoseKalmanFilter
from repro.geometry.mobility import PoseSample, head_turn_trace, linear_walk_trace
from repro.geometry.vectors import Vec2


def feed(kf, trace):
    for pose in trace:
        kf.update(pose)


class TestFilterBasics:
    def test_uninitialized_raises(self):
        kf = PoseKalmanFilter()
        with pytest.raises(RuntimeError):
            kf.predict(0.01)
        with pytest.raises(RuntimeError):
            kf.velocity

    def test_first_sample_initializes(self):
        kf = PoseKalmanFilter()
        kf.update(PoseSample(0.0, Vec2(1, 2), 30.0))
        predicted = kf.predict(0.0)
        assert predicted.position.x == pytest.approx(1.0, abs=1e-6)
        assert predicted.yaw_deg == pytest.approx(30.0, abs=1e-6)

    def test_non_increasing_time_rejected(self):
        kf = PoseKalmanFilter()
        kf.update(PoseSample(0.0, Vec2(0, 0), 0.0))
        with pytest.raises(ValueError):
            kf.update(PoseSample(0.0, Vec2(1, 1), 0.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PoseKalmanFilter(position_process_noise=0.0)
        with pytest.raises(ValueError):
            PoseKalmanFilter(yaw_obs_noise_deg=-1.0)

    def test_negative_horizon_rejected(self):
        kf = PoseKalmanFilter()
        kf.update(PoseSample(0.0, Vec2(0, 0), 0.0))
        with pytest.raises(ValueError):
            kf.predict(-0.1)


class TestConstantVelocityTracking:
    def test_learns_linear_velocity(self):
        trace = linear_walk_trace(Vec2(0, 0), Vec2(2, 0), duration_s=2.0)
        kf = PoseKalmanFilter()
        feed(kf, trace)
        assert kf.velocity.x == pytest.approx(1.0, abs=0.1)
        assert abs(kf.velocity.y) < 0.05

    def test_predicts_linear_motion(self):
        trace = linear_walk_trace(Vec2(0, 0), Vec2(2, 0), duration_s=2.0)
        kf = PoseKalmanFilter()
        feed(kf, trace)
        predicted = kf.predict(0.5)
        assert predicted.position.x == pytest.approx(2.5, abs=0.1)

    def test_learns_yaw_rate(self):
        trace = head_turn_trace(Vec2(1, 1), 0.0, 90.0, duration_s=1.0)
        kf = PoseKalmanFilter()
        feed(kf, trace)
        # 90 deg/s learned: a 0.1 s prediction turns ~9 degrees past 90.
        assert kf.predict(0.1).yaw_deg == pytest.approx(99.0, abs=1.0)

    def test_predicts_through_wrap(self):
        # Rotation crossing the +/-180 boundary must not glitch.
        trace = head_turn_trace(Vec2(1, 1), 150.0, 210.0, duration_s=1.0)
        kf = PoseKalmanFilter()
        feed(kf, trace)
        predicted = kf.predict(0.2)
        # 210 wrapped is -150; extrapolating ~12 more degrees.
        assert predicted.yaw_deg == pytest.approx(-138.0, abs=6.0)

    def test_prediction_beats_hold_for_constant_rate(self):
        trace = head_turn_trace(Vec2(1, 1), 0.0, 120.0, duration_s=1.0)
        kf = PoseKalmanFilter()
        samples = list(trace)
        for pose in samples[:-10]:
            kf.update(pose)
        last_fed = samples[-11]
        horizon = samples[-1].time_s - last_fed.time_s
        predicted = kf.predict(horizon)
        truth = samples[-1]
        hold_error = abs(truth.yaw_deg - last_fed.yaw_deg)
        kalman_error = abs(truth.yaw_deg - predicted.yaw_deg)
        assert kalman_error < hold_error / 2.0

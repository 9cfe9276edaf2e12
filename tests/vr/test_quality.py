"""Unit tests for QoE metrics."""

import pytest

from repro.vr.quality import FrameOutcome, GlitchTracker


def delivered(index, t, latency=0.005):
    return FrameOutcome(
        frame_index=index, emit_time_s=t, delivered=True, delivery_time_s=t + latency
    )


def missed(index, t):
    return FrameOutcome(frame_index=index, emit_time_s=t, delivered=False)


class TestFrameOutcome:
    def test_latency(self):
        assert delivered(0, 1.0, 0.004).latency_s == pytest.approx(0.004)
        assert missed(0, 1.0).latency_s is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameOutcome(frame_index=0, emit_time_s=0.0, delivered=True)
        with pytest.raises(ValueError):
            FrameOutcome(
                frame_index=0, emit_time_s=1.0, delivered=True, delivery_time_s=0.5
            )


class TestGlitchTracker:
    def make_tracker(self, pattern):
        tracker = GlitchTracker(frame_interval_s=0.01)
        for i, ok in enumerate(pattern):
            outcome = delivered(i, i * 0.01) if ok else missed(i, i * 0.01)
            tracker.record(outcome)
        return tracker

    def test_glitch_rate(self):
        tracker = self.make_tracker([True, False, True, False])
        assert tracker.glitch_rate == pytest.approx(0.5)
        assert tracker.glitch_count == 2

    def test_perfect_session(self):
        tracker = self.make_tracker([True] * 10)
        assert tracker.glitch_rate == 0.0
        assert tracker.longest_stall_s == 0.0
        assert tracker.mean_time_between_glitches_s == float("inf")

    def test_longest_stall(self):
        tracker = self.make_tracker([True, False, False, False, True, False])
        assert tracker.longest_stall_s == pytest.approx(0.03)

    def test_mtbg(self):
        tracker = self.make_tracker([True, False] * 5)
        assert tracker.mean_time_between_glitches_s == pytest.approx(0.02)

    def test_out_of_order_rejected(self):
        tracker = self.make_tracker([True])
        with pytest.raises(ValueError):
            tracker.record(delivered(0, 0.02))

    def test_empty_metrics_raise(self):
        tracker = GlitchTracker(frame_interval_s=0.01)
        with pytest.raises(ValueError):
            tracker.glitch_rate

    def test_summary_keys(self):
        summary = self.make_tracker([True, False]).summary()
        assert set(summary) == {
            "frames",
            "glitches",
            "glitch_rate",
            "longest_stall_s",
            "mtbg_s",
        }

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            GlitchTracker(frame_interval_s=0.0)

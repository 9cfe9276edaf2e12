"""Unit tests for the discrete-event simulation core."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.link.events import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda s: order.append("b"))
        sim.schedule(1.0, lambda s: order.append("a"))
        sim.schedule(3.0, lambda s: order.append("c"))
        sim.run_until(3.0)
        assert order == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.schedule(1.0, lambda s, l=label: order.append(l))
        sim.run_until(1.0)
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda s: seen.append(s.now))
        sim.run_until(1.5)
        assert seen == [1.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda s: None)
        with pytest.raises(ValueError):
            sim.schedule(math.nan, lambda s: None)

    def test_callbacks_can_schedule(self):
        sim = Simulator()
        order = []

        def first(s):
            order.append("first")
            s.schedule(1.0, lambda s2: order.append("second"))

        sim.schedule(1.0, first)
        sim.run_until(2.0)
        assert order == ["first", "second"]
        assert sim.now == 2.0


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda s: seen.append(1))
        sim.schedule(3.0, lambda s: seen.append(3))
        sim.run_until(2.0)
        assert seen == [1]
        assert sim.now == 2.0
        sim.run_until(4.0)
        assert seen == [1, 3]

    def test_boundary_inclusive(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda s: seen.append(2))
        sim.run_until(2.0)
        assert seen == [2]

    def test_past_end_time_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(1.0)


class TestPeriodic:
    def test_fires_at_period(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(0.5, lambda s: times.append(s.now))
        sim.run_until(2.0)
        assert times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_stop_function(self):
        sim = Simulator()
        times = []
        stop = sim.schedule_periodic(1.0, lambda s: times.append(s.now))
        sim.schedule(2.5, lambda s: stop())
        sim.run_until(10.0)
        assert times == pytest.approx([0.0, 1.0, 2.0])

    def test_bad_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_periodic(0.0, lambda s: None)

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)
        sim.run_until(2.0)
        assert sim.events_processed == 2


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    def test_arbitrary_delays_processed_in_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda s: fired.append(s.now))
        sim.run_until(100.0)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

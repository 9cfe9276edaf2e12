"""Unit tests for deterministic control-plane fault injection."""

import pytest

from repro.control.bluetooth import BleConfig, BleLink
from repro.control.faults import FaultKind, FaultSchedule, FaultWindow


def down(start, end):
    return FaultWindow(start_s=start, end_s=end, kind=FaultKind.LINK_DOWN)


class TestFaultWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultWindow(start_s=1.0, end_s=1.0, kind=FaultKind.LINK_DOWN)
        with pytest.raises(ValueError):
            FaultWindow(start_s=2.0, end_s=1.0, kind=FaultKind.LINK_DOWN)
        with pytest.raises(ValueError):
            FaultWindow(
                start_s=0.0, end_s=1.0, kind=FaultKind.BURST_LOSS, loss_rate=1.5
            )

    def test_half_open_interval(self):
        w = down(1.0, 2.0)
        assert w.active_at(1.0)
        assert w.active_at(1.999)
        assert not w.active_at(2.0)
        assert not w.active_at(0.999)
        assert w.duration_s == pytest.approx(1.0)


class TestFaultSchedule:
    def test_empty_schedule_is_falsy_and_transparent(self):
        schedule = FaultSchedule()
        assert not schedule
        assert not schedule.link_down_at(0.0)
        assert not schedule.stuck_at(5.0)
        assert schedule.loss_rate_at(3.0, 0.02) == pytest.approx(0.02)

    def test_link_down_lookup(self):
        schedule = FaultSchedule([down(1.0, 2.0), down(5.0, 6.0)])
        assert schedule.link_down_at(1.5)
        assert schedule.link_down_at(5.0)
        assert not schedule.link_down_at(3.0)
        assert schedule.loss_rate_at(1.5, 0.02) == 1.0

    def test_burst_raises_never_lowers_loss(self):
        burst = FaultWindow(
            start_s=0.0, end_s=1.0, kind=FaultKind.BURST_LOSS, loss_rate=0.5
        )
        schedule = FaultSchedule([burst])
        assert schedule.loss_rate_at(0.5, 0.02) == pytest.approx(0.5)
        assert schedule.loss_rate_at(0.5, 0.9) == pytest.approx(0.9)
        assert schedule.loss_rate_at(1.5, 0.02) == pytest.approx(0.02)

    def test_stuck_windows_independent_of_link(self):
        stuck = FaultWindow(
            start_s=2.0, end_s=3.0, kind=FaultKind.STUCK_REFLECTOR
        )
        schedule = FaultSchedule([stuck])
        assert schedule.stuck_at(2.5)
        assert not schedule.link_down_at(2.5)

    def test_periodic_constructor(self):
        schedule = FaultSchedule.periodic(
            FaultKind.LINK_DOWN, period_s=1.0, duration_s=0.2, count=3, start_s=0.5
        )
        assert len(schedule) == 3
        assert schedule.link_down_at(0.6)
        assert schedule.link_down_at(1.6)
        assert not schedule.link_down_at(0.8)
        with pytest.raises(ValueError):
            FaultSchedule.periodic(
                FaultKind.LINK_DOWN, period_s=1.0, duration_s=1.0, count=1
            )

    def test_poisson_deterministic_per_seed(self):
        a = FaultSchedule.poisson(42, horizon_s=30.0, rate_hz=0.5, mean_duration_s=0.3)
        b = FaultSchedule.poisson(42, horizon_s=30.0, rate_hz=0.5, mean_duration_s=0.3)
        c = FaultSchedule.poisson(43, horizon_s=30.0, rate_hz=0.5, mean_duration_s=0.3)
        assert a.windows == b.windows
        assert a.windows != c.windows
        assert all(w.end_s <= 30.0 for w in a.windows)
        # Same-kind windows never overlap.
        for earlier, later in zip(a.windows, a.windows[1:]):
            assert later.start_s >= earlier.end_s

    def test_merge(self):
        merged = FaultSchedule.merge(
            FaultSchedule([down(1.0, 2.0)]), FaultSchedule([down(5.0, 6.0)])
        )
        assert len(merged) == 2
        assert merged.link_down_at(1.5) and merged.link_down_at(5.5)


class TestBleLinkFaultIntegration:
    def test_link_down_window_exhausts_budget(self):
        # Lossless base link; the only way to fail is the down window.
        link = BleLink(
            BleConfig(loss_rate=0.0, jitter_s=0.0, max_retransmissions=4),
            rng=0,
            faults=FaultSchedule([down(0.0, 10.0)]),
        )
        with pytest.raises(ConnectionError):
            link.delivery_time_s(0.0)

    def test_delivery_clean_outside_windows(self):
        link = BleLink(
            BleConfig(loss_rate=0.0, jitter_s=0.0),
            rng=0,
            faults=FaultSchedule([down(1.0, 2.0)]),
        )
        assert link.delivery_time_s(0.0) == pytest.approx(0.0075)

    def test_burst_window_slows_delivery(self):
        cfg = BleConfig(loss_rate=0.0, jitter_s=0.0, max_retransmissions=50)
        burst = FaultWindow(
            start_s=0.0, end_s=0.5, kind=FaultKind.BURST_LOSS, loss_rate=0.9
        )
        lossy = BleLink(cfg, rng=1, faults=FaultSchedule([burst]))
        clean = BleLink(cfg, rng=1)
        assert lossy.delivery_time_s(0.0) > clean.delivery_time_s(0.0)
        assert lossy.retransmissions > 0

    def test_reconnect_fails_while_down_succeeds_after(self):
        link = BleLink(
            BleConfig(loss_rate=0.0, jitter_s=0.0),
            rng=0,
            faults=FaultSchedule([down(1.0, 2.0)]),
        )
        with pytest.raises(ConnectionError):
            link.try_reconnect(1.5)
        up_at = link.try_reconnect(2.0)
        assert up_at == pytest.approx(2.0 + link.config.reconnect_setup_s)
        assert link.reconnects == 1

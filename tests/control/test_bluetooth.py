"""Unit tests for the BLE control-channel model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.bluetooth import BleConfig, BleLink


class TestBleConfig:
    def test_defaults_sane(self):
        cfg = BleConfig()
        assert cfg.connection_interval_s == pytest.approx(0.0075)

    def test_validation(self):
        with pytest.raises(ValueError):
            BleConfig(connection_interval_s=0.0)
        with pytest.raises(ValueError):
            BleConfig(loss_rate=1.5)
        with pytest.raises(ValueError):
            BleConfig(max_retransmissions=-1)
        with pytest.raises(ValueError):
            BleConfig(payload_bytes_per_event=0)


class TestDelivery:
    def test_waits_for_connection_event(self):
        link = BleLink(BleConfig(loss_rate=0.0, jitter_s=0.0), rng=0)
        # Sent at 1 ms: next event at 7.5 ms, delivered one event later.
        arrival = link.delivery_time_s(0.001)
        assert arrival == pytest.approx(0.015)

    def test_aligned_send(self):
        link = BleLink(BleConfig(loss_rate=0.0, jitter_s=0.0), rng=0)
        arrival = link.delivery_time_s(0.0075)
        assert arrival == pytest.approx(0.015)

    def test_large_message_needs_multiple_events(self):
        cfg = BleConfig(loss_rate=0.0, jitter_s=0.0)
        link = BleLink(cfg, rng=0)
        small = link.delivery_time_s(0.0, 20)
        large = link.delivery_time_s(0.0, 3 * cfg.payload_bytes_per_event)
        assert large > small

    def test_loss_adds_delay_on_average(self):
        lossless = BleLink(BleConfig(loss_rate=0.0, jitter_s=0.0), rng=1)
        lossy = BleLink(BleConfig(loss_rate=0.4, jitter_s=0.0), rng=1)
        clean = np.mean([lossless.delivery_time_s(i * 0.1) - i * 0.1 for i in range(100)])
        noisy = np.mean([lossy.delivery_time_s(i * 0.1) - i * 0.1 for i in range(100)])
        assert noisy > clean
        assert lossy.retransmissions > 0

    def test_retransmission_budget_exhausts(self):
        link = BleLink(BleConfig(loss_rate=0.999, max_retransmissions=3), rng=2)
        with pytest.raises(ConnectionError):
            for i in range(50):
                link.delivery_time_s(float(i))

    def test_message_bytes_validated(self):
        link = BleLink(rng=0)
        with pytest.raises(ValueError):
            link.delivery_time_s(0.0, 0)

    def test_counters(self):
        link = BleLink(BleConfig(loss_rate=0.0), rng=0)
        link.delivery_time_s(0.0)
        link.delivery_time_s(1.0)
        assert link.messages_sent == 2


class TestConnectionEventBoundary:
    """The ceil-boundary bug: a send time an ulp above a connection-
    event boundary must not be charged a spurious full interval."""

    def test_accumulated_float_adds_stay_on_boundary(self):
        cfg = BleConfig(loss_rate=0.0, jitter_s=0.0)
        link = BleLink(cfg, rng=0)
        interval = cfg.connection_interval_s
        # 0.0075 is not exactly representable; summing it drifts off
        # the mathematical boundary by a few ulps.
        t = 0.0
        for _ in range(1000):
            t += interval
        arrival = link.delivery_time_s(t)
        assert arrival == pytest.approx(1001 * interval, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=200_000),
        steps=st.integers(min_value=1, max_value=64),
    )
    def test_boundary_send_charges_exactly_one_interval(self, k, steps):
        """A send time that mathematically equals boundary ``k`` —
        however it was accumulated — delivers at boundary ``k + 1``."""
        cfg = BleConfig(loss_rate=0.0, jitter_s=0.0)
        link = BleLink(cfg, rng=0)
        interval = cfg.connection_interval_s
        # Reach k*interval via `steps` equal float additions, the way
        # simulation clocks actually accumulate time.
        chunk = k * interval / steps
        t = 0.0
        for _ in range(steps):
            t += chunk
        arrival = link.delivery_time_s(t)
        assert arrival == pytest.approx((k + 1) * interval, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=200_000),
        frac=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_off_boundary_send_waits_for_next_event(self, k, frac):
        cfg = BleConfig(loss_rate=0.0, jitter_s=0.0)
        link = BleLink(cfg, rng=0)
        interval = cfg.connection_interval_s
        arrival = link.delivery_time_s((k + frac) * interval)
        assert arrival == pytest.approx((k + 2) * interval, abs=1e-8)

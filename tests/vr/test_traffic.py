"""Unit tests for the VR traffic model."""

import pytest

from repro.vr.traffic import DEFAULT_TRAFFIC, HTC_VIVE_DISPLAY, DisplaySpec, VrTrafficModel


class TestDisplaySpec:
    def test_vive_raw_rate_multi_gbps(self):
        # 2160x1200 @ 90 Hz @ 24 bpp = 5.6 Gbps raw.
        assert HTC_VIVE_DISPLAY.raw_rate_mbps == pytest.approx(5598.7, abs=1.0)

    def test_bits_per_frame(self):
        assert HTC_VIVE_DISPLAY.bits_per_frame == pytest.approx(
            2160 * 1200 * 24
        )

    def test_validation(self):
        with pytest.raises(TypeError):
            DisplaySpec(width_px=1.5, height_px=100, refresh_hz=90.0)
        with pytest.raises(ValueError):
            DisplaySpec(width_px=100, height_px=100, refresh_hz=0.0)


class TestVrTrafficModel:
    def test_required_rate_near_4gbps(self):
        # The paper's Fig. 3 "required data-rate" line sits around 4 Gbps.
        assert DEFAULT_TRAFFIC.required_rate_mbps == pytest.approx(4000.0, abs=150.0)

    def test_frame_interval_90hz(self):
        assert DEFAULT_TRAFFIC.frame_interval_s == pytest.approx(1.0 / 90.0)

    def test_airtime_scales_inverse_with_rate(self):
        t1 = DEFAULT_TRAFFIC.frame_airtime_s(4000.0)
        t2 = DEFAULT_TRAFFIC.frame_airtime_s(8000.0)
        assert t1 == pytest.approx(2.0 * t2)

    def test_airtime_infinite_when_down(self):
        assert DEFAULT_TRAFFIC.frame_airtime_s(0.0) == float("inf")

    def test_deadline_met_at_required_rate(self):
        # By construction: the required rate delivers a frame within a
        # frame interval; the 10 ms deadline is slightly tighter.
        rate = DEFAULT_TRAFFIC.required_rate_mbps
        airtime = DEFAULT_TRAFFIC.frame_airtime_s(rate)
        assert airtime <= DEFAULT_TRAFFIC.frame_interval_s

    def test_validation(self):
        with pytest.raises(ValueError):
            VrTrafficModel(frame_deadline_s=0.0)
        with pytest.raises(ValueError):
            VrTrafficModel(packing_efficiency=0.0)

"""Unit tests for the WiFi baseline."""

import pytest

from repro.baselines.wifi import (
    DEFAULT_WIFI,
    WifiConfig,
    max_wifi_goodput_mbps,
    wifi_goodput_mbps,
    wifi_phy_rate_mbps,
)


class TestWifiConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WifiConfig(bandwidth_mhz=60)
        with pytest.raises(ValueError):
            WifiConfig(spatial_streams=9)
        with pytest.raises(ValueError):
            WifiConfig(mac_efficiency=0.0)


class TestRates:
    def test_zero_below_mcs0(self):
        assert wifi_phy_rate_mbps(-5.0) == 0.0

    def test_rate_monotone_in_snr(self):
        rates = [wifi_phy_rate_mbps(snr) for snr in range(0, 45, 5)]
        assert rates == sorted(rates)

    def test_80mhz_2ss_ceiling(self):
        # VHT MCS9, 2 streams, 80 MHz = 780 Mbps PHY.
        assert wifi_phy_rate_mbps(60.0, DEFAULT_WIFI) == pytest.approx(780.0)

    def test_bandwidth_scales(self):
        narrow = WifiConfig(bandwidth_mhz=40, spatial_streams=1)
        wide = WifiConfig(bandwidth_mhz=160, spatial_streams=1)
        assert wifi_phy_rate_mbps(60.0, wide) == pytest.approx(
            4.0 * wifi_phy_rate_mbps(60.0, narrow)
        )

    def test_goodput_below_phy(self):
        assert wifi_goodput_mbps(40.0) < wifi_phy_rate_mbps(40.0)


class TestTheHeadlineClaim:
    def test_wifi_cannot_carry_vr(self):
        """The paper's premise: WiFi cannot support VR's multi-Gbps."""
        assert max_wifi_goodput_mbps(DEFAULT_WIFI) < 4000.0

    def test_even_best_case_wifi_fails(self):
        best_case = WifiConfig(bandwidth_mhz=160, spatial_streams=4)
        assert max_wifi_goodput_mbps(best_case) < 4000.0

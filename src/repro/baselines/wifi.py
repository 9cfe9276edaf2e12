"""WiFi (802.11ac) baseline: why sub-6 GHz cannot carry VR.

The paper's opening argument: "typical wireless systems such as WiFi
cannot support the required data rates."  This module provides an
802.11ac (VHT) rate model so the quickstart experiment can make that
comparison concrete: even a 4x4 MIMO 160 MHz 802.11ac link tops out
near 3.5 Gbps of PHY rate (~2.3 Gbps of goodput), and realistic
single-user configurations deliver far less — below the ~4 Gbps the
headset needs, before even considering latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import require_int

#: VHT MCS data rates in Mbps for one spatial stream at 80 MHz,
#: long guard interval (IEEE 802.11ac Table 21-30 family).
_VHT80_1SS_MBPS = [29.3, 58.5, 87.8, 117.0, 175.5, 234.0, 263.3, 292.5, 351.0, 390.0]

#: Minimum SNR (dB) for each VHT MCS index (typical vendor figures).
_VHT_SNR_THRESHOLDS_DB = [2.0, 5.0, 9.0, 11.0, 15.0, 18.0, 20.0, 25.0, 29.0, 31.0]


@dataclass(frozen=True)
class WifiConfig:
    """An 802.11ac station configuration."""

    bandwidth_mhz: int = 80
    spatial_streams: int = 2
    mac_efficiency: float = 0.65

    def __post_init__(self) -> None:
        if self.bandwidth_mhz not in (20, 40, 80, 160):
            raise ValueError("bandwidth must be one of 20/40/80/160 MHz")
        require_int(self.spatial_streams, "spatial_streams", minimum=1)
        if self.spatial_streams > 8:
            raise ValueError("802.11ac supports at most 8 spatial streams")
        if not 0.0 < self.mac_efficiency <= 1.0:
            raise ValueError("mac_efficiency must be in (0, 1]")

    @property
    def bandwidth_scale(self) -> float:
        """Rate scaling relative to the 80 MHz reference table."""
        return self.bandwidth_mhz / 80.0


#: A strong consumer configuration (2x2 at 80 MHz).
DEFAULT_WIFI = WifiConfig()


def wifi_phy_rate_mbps(snr_db: float, config: WifiConfig = DEFAULT_WIFI) -> float:
    """802.11ac PHY rate at a given SNR (0 when below MCS0)."""
    best = 0.0
    for mcs, threshold in enumerate(_VHT_SNR_THRESHOLDS_DB):
        # Higher streams need a few dB more for the same MCS.
        stream_penalty = 3.0 * math.log2(config.spatial_streams)
        if snr_db >= threshold + stream_penalty:
            best = (
                _VHT80_1SS_MBPS[mcs]
                * config.bandwidth_scale
                * config.spatial_streams
            )
    return best


def wifi_goodput_mbps(snr_db: float, config: WifiConfig = DEFAULT_WIFI) -> float:
    """Application-level throughput after MAC overheads."""
    return wifi_phy_rate_mbps(snr_db, config) * config.mac_efficiency


def max_wifi_goodput_mbps(config: WifiConfig = DEFAULT_WIFI) -> float:
    """The configuration's ceiling (top MCS, after MAC overhead)."""
    return wifi_goodput_mbps(60.0, config)

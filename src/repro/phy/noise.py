"""Noise figures, noise floors, and SNR arithmetic.

The receiver noise floor is ``kTB + NF``; the MoVR relay path's two
amplify-and-forward hops combine their SNRs harmonically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from repro.utils.units import IEEE80211AD_BANDWIDTH_HZ, thermal_noise_dbm
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class ReceiverNoise:
    """A receiver's noise parameters."""

    bandwidth_hz: float = IEEE80211AD_BANDWIDTH_HZ
    noise_figure_db: float = 6.0

    def __post_init__(self) -> None:
        require_positive(self.bandwidth_hz, "bandwidth_hz")
        require_non_negative(self.noise_figure_db, "noise_figure_db")

    @property
    def noise_floor_dbm(self) -> float:
        """Total input-referred noise power: kTB + NF."""
        return thermal_noise_dbm(self.bandwidth_hz) + self.noise_figure_db

    def snr_db(self, received_power_dbm: float) -> float:
        """SNR for a given received signal power."""
        return received_power_dbm - self.noise_floor_dbm


def relay_path_snr_db(
    first_hop_snr_db: float,
    second_hop_snr_db: float,
) -> float:
    """End-to-end SNR of an amplify-and-forward two-hop path.

    An analog repeater amplifies its input *noise* along with the
    signal, so the end-to-end SNR combines the per-hop SNRs
    harmonically (in the linear domain):
    ``1/snr = 1/snr1 + 1/snr2``.

    >>> round(relay_path_snr_db(30.0, 30.0), 2)
    26.99
    """
    s1 = 10.0 ** (first_hop_snr_db / 10.0)
    s2 = 10.0 ** (second_hop_snr_db / 10.0)
    if s1 <= 0.0 or s2 <= 0.0:
        return -math.inf
    combined = 1.0 / (1.0 / s1 + 1.0 / s2)
    return 10.0 * math.log10(combined)

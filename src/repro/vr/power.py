"""Headset power/battery model (section 6 of the paper).

The paper argues the USB power cable can also be cut: "The maximum
current drawn by the HTC Vive headset is 1500 mA.  Hence, a small
battery (3.8 x 1.7 x 0.9 in) with 5200 mAh capacity can run the headset
for 4-5 hours."  This module reproduces that estimate and extends it
with the mmWave receiver's own power draw.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require_positive


@dataclass(frozen=True)
class BatteryPack:
    """A rechargeable battery pack."""

    capacity_mah: float
    voltage_v: float = 5.0
    usable_fraction: float = 0.95

    def __post_init__(self) -> None:
        require_positive(self.capacity_mah, "capacity_mah")
        require_positive(self.voltage_v, "voltage_v")
        if not 0.0 < self.usable_fraction <= 1.0:
            raise ValueError("usable_fraction must be in (0, 1]")

    @property
    def usable_capacity_mah(self) -> float:
        return self.capacity_mah * self.usable_fraction



#: The paper's example pack: Anker Astro 5200 mAh (3.8 x 1.7 x 0.9 in).
ANKER_ASTRO_5200 = BatteryPack(capacity_mah=5200.0)


@dataclass(frozen=True)
class HeadsetPowerModel:
    """Current draw of an untethered headset.

    ``headset_current_ma`` is the display/tracking electronics (the
    Vive's 1500 mA maximum); ``mmwave_rx_current_ma`` adds the mmWave
    receiver front-end, which a wireless headset must also power
    (~300 mA for a phased-array receiver at this class).
    """

    headset_current_ma: float = 1500.0
    mmwave_rx_current_ma: float = 0.0
    duty_cycle: float = 1.0

    def __post_init__(self) -> None:
        require_positive(self.headset_current_ma, "headset_current_ma")
        if self.mmwave_rx_current_ma < 0.0:
            raise ValueError("mmwave_rx_current_ma must be non-negative")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in (0, 1]")

    @property
    def total_current_ma(self) -> float:
        return (self.headset_current_ma + self.mmwave_rx_current_ma) * self.duty_cycle

    def runtime_hours(self, battery: BatteryPack) -> float:
        """Play time on one charge.

        >>> model = HeadsetPowerModel()
        >>> 3.0 < model.runtime_hours(ANKER_ASTRO_5200) < 5.0
        True
        """
        return battery.usable_capacity_mah / self.total_current_ma

"""VR application layer: traffic, QoE, power."""

from repro.vr.power import ANKER_ASTRO_5200, BatteryPack, HeadsetPowerModel
from repro.vr.quality import FrameOutcome, GlitchTracker
from repro.vr.traffic import (
    DEFAULT_TRAFFIC,
    HTC_VIVE_DISPLAY,
    DisplaySpec,
    VrTrafficModel,
)

__all__ = [
    "ANKER_ASTRO_5200",
    "BatteryPack",
    "HeadsetPowerModel",
    "FrameOutcome",
    "GlitchTracker",
    "DEFAULT_TRAFFIC",
    "HTC_VIVE_DISPLAY",
    "DisplaySpec",
    "VrTrafficModel",
]

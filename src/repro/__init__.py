"""MoVR: programmable mmWave reflectors for untethered virtual reality.

A faithful, simulation-based reproduction of *"Cutting the Cord in
Virtual Reality"* (Abari, Bharadia, Duffield, Katabi — HotNets 2016).

The package is organized bottom-up:

* :mod:`repro.utils` — dB math, statistics, RNG plumbing;
* :mod:`repro.geometry` — the 5 m x 5 m office: shapes, ray tracing,
  human-body occluders, player motion;
* :mod:`repro.phy` — phased arrays, the mmWave channel, blockage/
  diffraction, amplifiers, OFDM;
* :mod:`repro.rate` — 802.11ad MCS tables and rate adaptation;
* :mod:`repro.link` — radios, link budgets, beam search, event core;
* :mod:`repro.vr` — VR traffic, QoE, battery;
* :mod:`repro.core` — **the paper's contribution**: the MoVR
  reflector, leakage model, backscatter angle search, current-sensing
  gain control, handoff controller, pose-assisted tracking;
* :mod:`repro.baselines` — WiFi, Opt-NLOS, multi-AP, static mirror;
* :mod:`repro.experiments` — one runnable module per paper figure.

Quickstart::

    from repro.experiments import run_fig9
    run_fig9(seed=1).print_report()
"""

from repro.core import (
    BackscatterAngleSearch,
    CurrentSensingGainController,
    LinkDecision,
    MoVRReflector,
    MoVRSystem,
    PoseAssistedTracker,
    ReflectorLeakageModel,
)
from repro.experiments import ALL_EXPERIMENTS, default_testbed
from repro.geometry import Room, Vec2, standard_office
from repro.link import LinkBudget, Radio, RadioConfig
from repro.phy import MmWaveChannel, PhasedArray, PhasedArrayConfig
from repro.rate import best_mcs_for_snr, data_rate_mbps_for_snr
from repro.vr import VrTrafficModel

__version__ = "1.0.0"

__all__ = [
    "BackscatterAngleSearch",
    "CurrentSensingGainController",
    "LinkDecision",
    "MoVRReflector",
    "MoVRSystem",
    "PoseAssistedTracker",
    "ReflectorLeakageModel",
    "ALL_EXPERIMENTS",
    "default_testbed",
    "Room",
    "Vec2",
    "standard_office",
    "LinkBudget",
    "Radio",
    "RadioConfig",
    "MmWaveChannel",
    "PhasedArray",
    "PhasedArrayConfig",
    "best_mcs_for_snr",
    "data_rate_mbps_for_snr",
    "VrTrafficModel",
    "__version__",
]

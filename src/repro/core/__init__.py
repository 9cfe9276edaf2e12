"""MoVR core: the paper's contribution.

Programmable mmWave reflector, TX-to-RX leakage model, backscatter
angle search, current-sensing gain control, handoff controller, and
pose-assisted beam tracking.
"""

from repro.core.angle_search import (
    OOK_SIDEBAND_FRACTION,
    AngleSearchResult,
    BackscatterAngleSearch,
    ReflectionAngleSearch,
)
from repro.core.controller import LinkDecision, MoVRSystem, RelayMeasurement
from repro.core.gain_control import (
    CurrentSensingGainController,
    CurrentSensor,
    CurrentSensorSpec,
    GainControlResult,
    conservative_gain_db,
    oracle_gain_db,
)
from repro.core.prediction import (
    PoseKalmanFilter,
    PredictedPose,
)
from repro.core.leakage import (
    BROADSIDE_DEG,
    MAX_ANGLE_DEG,
    MIN_ANGLE_DEG,
    ReflectorLeakageModel,
)
from repro.core.reflector import (
    REFLECTOR_ARRAY,
    REFLECTOR_SCAN_DEG,
    MoVRReflector,
    ReflectorState,
)
from repro.core.tracking import PoseAssistedTracker, TrackerStats, TrackingUpdate

__all__ = [
    "OOK_SIDEBAND_FRACTION",
    "AngleSearchResult",
    "BackscatterAngleSearch",
    "ReflectionAngleSearch",
    "LinkDecision",
    "MoVRSystem",
    "RelayMeasurement",
    "CurrentSensingGainController",
    "CurrentSensor",
    "CurrentSensorSpec",
    "GainControlResult",
    "conservative_gain_db",
    "oracle_gain_db",
    "BROADSIDE_DEG",
    "MAX_ANGLE_DEG",
    "MIN_ANGLE_DEG",
    "ReflectorLeakageModel",
    "REFLECTOR_ARRAY",
    "REFLECTOR_SCAN_DEG",
    "MoVRReflector",
    "ReflectorState",
    "PoseAssistedTracker",
    "PoseKalmanFilter",
    "PredictedPose",
    "TrackerStats",
    "TrackingUpdate",
]

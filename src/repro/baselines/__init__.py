"""Baselines the paper compares against (or dismisses)."""

from repro.baselines.multi_ap import (
    DeploymentCost,
    MultiApBaseline,
    MultiApResult,
    movr_deployment_cost,
)
from repro.baselines.nlos_relay import (
    OptNlosBaseline,
    OptNlosResult,
)
from repro.baselines.static_mirror import (
    MirrorPanel,
    StaticMirrorBaseline,
    wall_panel,
)
from repro.baselines.wifi import (
    DEFAULT_WIFI,
    WifiConfig,
    max_wifi_goodput_mbps,
    wifi_goodput_mbps,
    wifi_phy_rate_mbps,
)

__all__ = [
    "DeploymentCost",
    "MultiApBaseline",
    "MultiApResult",
    "movr_deployment_cost",
    "OptNlosBaseline",
    "OptNlosResult",
    "MirrorPanel",
    "StaticMirrorBaseline",
    "wall_panel",
    "DEFAULT_WIFI",
    "WifiConfig",
    "max_wifi_goodput_mbps",
    "wifi_goodput_mbps",
    "wifi_phy_rate_mbps",
]

"""Shared utilities: dB math, statistics, RNG plumbing, validation."""

from repro.utils.db import (
    db_sum_powers,
    linear_to_db,
)
from repro.utils.rng import DEFAULT_SEED, child_rng, make_rng
from repro.utils.stats import EmpiricalCdf
from repro.utils.units import (
    BOLTZMANN,
    IEEE80211AD_BANDWIDTH_HZ,
    MOVR_CARRIER_HZ,
    SPEED_OF_LIGHT,
    T0_KELVIN,
    angle_difference_deg,
    deg_to_rad,
    rad_to_deg,
    thermal_noise_dbm,
    wavelength,
    wrap_angle_deg,
)

__all__ = [
    "db_sum_powers",
    "linear_to_db",
    "DEFAULT_SEED",
    "child_rng",
    "make_rng",
    "EmpiricalCdf",
    "BOLTZMANN",
    "IEEE80211AD_BANDWIDTH_HZ",
    "MOVR_CARRIER_HZ",
    "SPEED_OF_LIGHT",
    "T0_KELVIN",
    "angle_difference_deg",
    "deg_to_rad",
    "rad_to_deg",
    "thermal_noise_dbm",
    "wavelength",
    "wrap_angle_deg",
]

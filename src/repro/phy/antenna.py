"""Phased-array antenna model.

MoVR's antennas are phased arrays of patch elements with analog phase
shifters (Hittite HMC-933 in the prototype): small enough to be "half
the size of a credit card" yet directional enough for a ~10-degree beam
(section 5.1 of the paper).  The model here is a uniform linear array (ULA)
with an ideal patch element pattern and optionally-quantized phase
shifters; its array factor supplies both the in-beam gain used in the
link budget and the sidelobe structure that drives the reflector's
TX-to-RX leakage (Fig. 7).

Angle conventions: azimuths in degrees in the scene frame.  An array
has a ``boresight_deg`` (mechanical mounting direction) and a steering
angle; steering is limited to +/-``max_scan_deg`` around boresight, as
real phased arrays cannot scan to endfire without severe gain loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import telemetry
from repro.utils.units import (
    MOVR_CARRIER_HZ,
    angle_difference_deg,
    angle_difference_deg_batch,
    deg_to_rad,
    wavelength,
)
from repro.utils.validation import require_int, require_positive


@dataclass(frozen=True)
class PhasedArrayConfig:
    """Physical parameters of a phased array.

    ``num_elements`` elements at ``spacing_wavelengths`` pitch; each
    element contributes ``element_gain_dbi`` of its own.  A 16-element
    half-wavelength ULA gives roughly a 10-degree 3 dB beamwidth (the paper's
    figure) in our convention (beamwidth ~ 102 deg / N at broadside for
    a uniform ULA measured in sin-space, somewhat wider off broadside).
    ``phase_shifter_bits`` of 0 means ideal (continuous) phase control.
    """

    num_elements: int = 16
    spacing_wavelengths: float = 0.5
    element_gain_dbi: float = 5.0
    carrier_hz: float = MOVR_CARRIER_HZ
    phase_shifter_bits: int = 0
    max_scan_deg: float = 60.0
    num_panels: int = 1

    def __post_init__(self) -> None:
        require_int(self.num_elements, "num_elements", minimum=1)
        require_positive(self.spacing_wavelengths, "spacing_wavelengths")
        require_positive(self.carrier_hz, "carrier_hz")
        if self.phase_shifter_bits < 0:
            raise ValueError("phase_shifter_bits must be >= 0")
        require_positive(self.max_scan_deg, "max_scan_deg")
        require_int(self.num_panels, "num_panels", minimum=1)

    @property
    def wavelength_m(self) -> float:
        return wavelength(self.carrier_hz)

    @property
    def boresight_gain_dbi(self) -> float:
        """Peak gain when steered to broadside: array gain + element gain."""
        return 10.0 * math.log10(self.num_elements) + self.element_gain_dbi

    @property
    def beamwidth_deg(self) -> float:
        """Approximate 3 dB beamwidth at broadside for a uniform ULA."""
        return 101.8 / (self.num_elements * self.spacing_wavelengths * 2.0)


def _array_factor_db(num_elements: int, psi: np.ndarray) -> np.ndarray:
    """Normalized ULA array factor ``20*log10(|AF|/N)`` over ``psi``.

    ``psi`` is the per-element phase progression mismatch.  The
    removable singularity at ``psi = 0`` (main-lobe peak) is handled
    explicitly, matching the scalar kernel's epsilon rule.
    """
    psi = np.asarray(psi, dtype=float)
    peak = np.abs(psi) < 1e-12
    safe = np.where(peak, 1.0, psi)
    af = np.abs(
        np.sin(num_elements * safe / 2.0) / (num_elements * np.sin(safe / 2.0))
    )
    af = np.where(peak, 1.0, af)
    return 20.0 * np.log10(np.maximum(af, 1e-9))


#: The MoVR prototype array: ~17 dBi peak gain, ~6.4 degree beamwidth —
#: consistent with the paper's "~10 degrees" including steering loss.
MOVR_ARRAY = PhasedArrayConfig()

#: Wider-beam, lower-gain array for ablations.
SMALL_ARRAY = PhasedArrayConfig(num_elements=8)


class PhasedArray:
    """A steerable phased array mounted at a fixed orientation.

    The array computes its realized gain toward an arbitrary azimuth
    given the current electronic steering angle.  Steering is
    instantaneous at the simulation's time scale (the paper: analog
    phase shifters reconfigure in sub-microseconds).
    """

    def __init__(
        self,
        config: PhasedArrayConfig = MOVR_ARRAY,
        boresight_deg: float = 0.0,
    ) -> None:
        self.config = config
        self.boresight_deg = float(boresight_deg)
        self._steer_deg = 0.0  # relative to boresight

    # -- steering ------------------------------------------------------

    @property
    def steering_deg(self) -> float:
        """Current steering angle in the *scene* frame (absolute azimuth)."""
        return self.boresight_deg + self._steer_deg

    def steer_to(self, azimuth_deg: float) -> float:
        """Steer the beam toward an absolute azimuth.

        The commanded angle is clipped to the scan range and quantized
        to the phase-shifter resolution; the *achieved* absolute
        azimuth is returned.
        """
        self._steer_deg = self._relative_steer(azimuth_deg)
        return self.steering_deg

    def achieved_deg(self, azimuth_deg: float) -> float:
        """The azimuth :meth:`steer_to` would achieve, without steering."""
        return self.boresight_deg + self._relative_steer(azimuth_deg)

    def _relative_steer(self, azimuth_deg: float) -> float:
        relative = angle_difference_deg(azimuth_deg, self.boresight_deg)
        relative = max(-self.config.max_scan_deg, min(self.config.max_scan_deg, relative))
        return self._quantize(relative)

    def can_steer_to(self, azimuth_deg: float) -> bool:
        """True iff the azimuth is inside the scan range."""
        relative = angle_difference_deg(azimuth_deg, self.boresight_deg)
        return abs(relative) <= self.config.max_scan_deg

    def _quantize(self, relative_deg: float) -> float:
        bits = self.config.phase_shifter_bits
        if bits == 0:
            return relative_deg
        # Quantizing element phases quantizes the steer angle in
        # sin-space with 2^bits levels across the scan range.
        levels = 2 ** bits
        span = math.sin(deg_to_rad(self.config.max_scan_deg))
        s = math.sin(deg_to_rad(relative_deg))
        step = 2.0 * span / levels
        s_q = round(s / step) * step
        s_q = max(-span, min(span, s_q))
        return math.degrees(math.asin(s_q))

    def steer_to_batch(self, azimuth_deg: np.ndarray) -> np.ndarray:
        """Achieved absolute steering for a whole batch of commands.

        The vectorized counterpart of :meth:`steer_to` — scan-range
        clipping and phase quantization included — except the array's
        own state is left untouched: sweeps probe candidate steerings
        without committing to one.
        """
        relative = angle_difference_deg_batch(azimuth_deg, self.boresight_deg)
        relative = np.clip(relative, -self.config.max_scan_deg, self.config.max_scan_deg)
        bits = self.config.phase_shifter_bits
        if bits:
            levels = 2 ** bits
            span = math.sin(deg_to_rad(self.config.max_scan_deg))
            step = 2.0 * span / levels
            # np.round matches Python round() (banker's rounding).
            s_q = np.clip(np.round(np.sin(np.radians(relative)) / step) * step, -span, span)
            relative = np.degrees(np.arcsin(s_q))
        return self.boresight_deg + relative

    # -- gain pattern ---------------------------------------------------

    def gain_dbi(self, toward_deg: float, steer_override_deg: Optional[float] = None) -> float:
        """Realized gain (dBi) toward an absolute azimuth.

        Combines the array factor (steered to the current or overridden
        angle) with the element pattern.  Angles behind the array plane
        (> 90 degrees off boresight) fall to the backlobe floor.
        """
        steer_abs = self.steering_deg if steer_override_deg is None else steer_override_deg
        theta = angle_difference_deg(toward_deg, self.boresight_deg)
        steer = angle_difference_deg(steer_abs, self.boresight_deg)
        return self._pattern_gain_dbi(theta, steer)

    def gain_dbi_batch(self, toward_deg, steer_deg) -> np.ndarray:
        """Realized gain (dBi) over whole grids of angles in one call.

        ``toward_deg`` and ``steer_deg`` are absolute azimuths (scene
        frame) and may be any broadcastable mix of scalars and arrays:
        sweep targets at a fixed steering, sweep steerings at a fixed
        target, or both at once.  This is the vectorized kernel behind
        the scalar :meth:`gain_dbi`, so the two agree exactly.
        """
        theta = angle_difference_deg_batch(toward_deg, self.boresight_deg)
        steer = angle_difference_deg_batch(steer_deg, self.boresight_deg)
        return self._pattern_gain_dbi_batch(theta, steer)

    def _pattern_gain_dbi(self, theta_deg: float, steer_deg: float) -> float:
        return float(self._pattern_gain_dbi_batch(theta_deg, steer_deg))

    def _pattern_gain_dbi_batch(self, theta_deg, steer_deg) -> np.ndarray:
        """Array factor + element pattern over broadcast angle grids.

        ``theta_deg``/``steer_deg`` are *relative to boresight*.  All
        scalar-kernel clamping rules are reproduced element-wise.
        """
        cfg = self.config
        n = cfg.num_elements
        theta = np.asarray(theta_deg, dtype=float)
        steer = np.asarray(steer_deg, dtype=float)
        # Electrical angle difference in sin-space.
        behind = np.abs(theta) > 90.0
        sin_theta = np.sin(np.radians(theta))
        sin_steer = np.sin(np.radians(steer))
        psi = 2.0 * np.pi * cfg.spacing_wavelengths * (sin_theta - sin_steer)
        telemetry.inc("kernel.batches")
        telemetry.inc("kernel.angles", psi.size)
        af_db = _array_factor_db(n, psi)
        # Element pattern: patch cos^1.2 falloff, floored at the
        # backlobe level.
        cos_t = np.cos(np.radians(np.minimum(np.abs(theta), 90.0)))
        element_db = cfg.element_gain_dbi + 12.0 * np.log10(np.maximum(cos_t, 1e-6))
        gain = 10.0 * math.log10(n) + af_db + element_db
        floor = self.backlobe_level_dbi()
        return np.where(behind, floor, np.maximum(gain, floor))

    def relative_pattern_db(
        self,
        toward_deg: float,
        steer_deg: float,
        floor_db: float = -40.0,
    ) -> float:
        """Pattern level relative to peak gain, with a custom floor.

        Unlike :meth:`gain_dbi` (whose floor models the realized
        backlobe including scattering off the platform), this exposes
        the raw array-factor sidelobe structure down to ``floor_db`` —
        needed by the reflector leakage model, where deep sidelobe
        nulls are observable.
        """
        return float(self.relative_pattern_db_batch(toward_deg, steer_deg, floor_db))

    def relative_pattern_db_batch(
        self,
        toward_deg,
        steer_deg,
        floor_db: float = -40.0,
    ) -> np.ndarray:
        """Vectorized :meth:`relative_pattern_db` over broadcast grids."""
        theta = angle_difference_deg_batch(toward_deg, self.boresight_deg)
        steer = angle_difference_deg_batch(steer_deg, self.boresight_deg)
        cfg = self.config
        n = cfg.num_elements
        sin_theta = np.sin(np.radians(np.clip(theta, -90.0, 90.0)))
        sin_steer = np.sin(np.radians(steer))
        psi = 2.0 * np.pi * cfg.spacing_wavelengths * (sin_theta - sin_steer)
        telemetry.inc("kernel.batches")
        telemetry.inc("kernel.angles", psi.size)
        af_db = _array_factor_db(n, psi)
        cos_t = np.cos(np.radians(np.minimum(np.abs(theta), 90.0)))
        element_rel_db = 12.0 * np.log10(np.maximum(cos_t, 1e-6))
        return np.maximum(floor_db, af_db + element_rel_db)

    def backlobe_level_dbi(self) -> float:
        """Gain floor behind/beside the array.

        Patch arrays on a ground plane typically show 25-35 dB
        front-to-back ratio; we use 30 dB below peak.
        """
        return self.config.boresight_gain_dbi - 30.0

    def pattern(self, steer_deg: float, resolution_deg: float = 1.0) -> np.ndarray:
        """Full 360-degree gain cut at the given steering angle.

        Returns an array of shape (num_angles, 2): absolute azimuth and
        gain in dBi.  Useful for plotting and for the leakage model's
        calibration tests.
        """
        azimuths = np.arange(-180.0, 180.0, resolution_deg) + self.boresight_deg
        gains = self.gain_dbi_batch(azimuths, steer_deg)
        return np.stack([azimuths, gains], axis=1)


class MultiPanelArray:
    """Several phased-array panels facing different directions.

    Headset receivers combine panels around the faceplate so a beam is
    available toward any azimuth (panel switching plus per-panel
    steering).  ``boresight_deg`` is the mounting orientation of panel
    0; the remaining panels are spaced uniformly around the circle.
    Steering selects the panel whose boresight is closest to the
    target, so with ``num_panels >= 180 / max_scan_deg`` coverage is
    seamless.

    The interface mirrors :class:`PhasedArray` so radios can hold
    either.
    """

    def __init__(
        self,
        config: PhasedArrayConfig,
        boresight_deg: float = 0.0,
    ) -> None:
        if config.num_panels < 2:
            raise ValueError("MultiPanelArray needs num_panels >= 2")
        self.config = config
        self._panel_offsets = [
            i * 360.0 / config.num_panels for i in range(config.num_panels)
        ]
        self._boresight_deg = float(boresight_deg)
        self._panels = [
            PhasedArray(config, boresight_deg=self._boresight_deg + off)
            for off in self._panel_offsets
        ]
        self._active = 0

    # -- orientation ------------------------------------------------------

    @property
    def boresight_deg(self) -> float:
        return self._boresight_deg

    @boresight_deg.setter
    def boresight_deg(self, value: float) -> None:
        """Rotate the whole assembly (head rotation)."""
        self._boresight_deg = float(value)
        for panel, offset in zip(self._panels, self._panel_offsets):
            steer = panel.steering_deg
            panel.boresight_deg = self._boresight_deg + offset
            if panel.can_steer_to(steer):
                panel.steer_to(steer)
            else:
                panel.steer_to(panel.boresight_deg)

    # -- steering ----------------------------------------------------------

    def _best_panel_for(self, azimuth_deg: float) -> int:
        return min(
            range(len(self._panels)),
            key=lambda i: abs(
                angle_difference_deg(azimuth_deg, self._panels[i].boresight_deg)
            ),
        )

    @property
    def steering_deg(self) -> float:
        return self._panels[self._active].steering_deg

    def steer_to(self, azimuth_deg: float) -> float:
        self._active = self._best_panel_for(azimuth_deg)
        return self._panels[self._active].steer_to(azimuth_deg)

    def can_steer_to(self, azimuth_deg: float) -> bool:
        panel = self._panels[self._best_panel_for(azimuth_deg)]
        return panel.can_steer_to(azimuth_deg)

    # -- gain ---------------------------------------------------------------

    def gain_dbi(self, toward_deg: float, steer_override_deg: Optional[float] = None) -> float:
        """Realized gain toward an azimuth.

        With a steering override, the panel that *would* serve that
        steering direction is evaluated (matching how panel selection
        follows the commanded beam).
        """
        if steer_override_deg is None:
            return self._panels[self._active].gain_dbi(toward_deg)
        panel = self._panels[self._best_panel_for(steer_override_deg)]
        return panel.gain_dbi(toward_deg, steer_override_deg=steer_override_deg)

    def _panel_index_batch(self, steer_deg: np.ndarray) -> np.ndarray:
        """Serving-panel index for each steering angle (vectorized)."""
        boresights = np.asarray([p.boresight_deg for p in self._panels])
        offsets = np.abs(
            angle_difference_deg_batch(
                np.asarray(steer_deg, dtype=float)[..., None], boresights
            )
        )
        return np.argmin(offsets, axis=-1)

    def gain_dbi_batch(self, toward_deg, steer_deg) -> np.ndarray:
        """Vectorized gain with per-steering panel selection.

        Mirrors :meth:`gain_dbi` with a steering override: each
        steering angle is served by the panel closest to it, and that
        panel's pattern is evaluated toward the (broadcast) targets.
        """
        toward = np.asarray(toward_deg, dtype=float)
        steer = np.asarray(steer_deg, dtype=float)
        if steer.ndim == 0:
            panel = self._panels[self._best_panel_for(float(steer))]
            return panel.gain_dbi_batch(toward, steer)
        toward_b, steer_b = np.broadcast_arrays(toward, steer)
        indices = self._panel_index_batch(steer_b)
        out = np.empty(steer_b.shape, dtype=float)
        for i in np.unique(indices):
            mask = indices == i
            out[mask] = self._panels[int(i)].gain_dbi_batch(
                toward_b[mask], steer_b[mask]
            )
        return out

    def steer_to_batch(self, azimuth_deg: np.ndarray) -> np.ndarray:
        """Achieved steering per command, with panel selection.

        State-free like :meth:`PhasedArray.steer_to_batch`.
        """
        azimuth = np.atleast_1d(np.asarray(azimuth_deg, dtype=float))
        indices = self._panel_index_batch(azimuth)
        out = np.empty(azimuth.shape, dtype=float)
        for i in np.unique(indices):
            mask = indices == i
            out[mask] = self._panels[int(i)].steer_to_batch(azimuth[mask])
        return out.reshape(np.shape(azimuth_deg)) if np.ndim(azimuth_deg) else out[0]

    def backlobe_level_dbi(self) -> float:
        return self._panels[0].backlobe_level_dbi()


@dataclass(frozen=True)
class OmniAntenna:
    """An isotropic (0 dBi) antenna — the WiFi baseline's antenna."""

    gain_dbi_value: float = 0.0

    def gain_dbi(self, toward_deg: float, steer_override_deg: Optional[float] = None) -> float:
        return self.gain_dbi_value

    def gain_dbi_batch(self, toward_deg, steer_deg) -> np.ndarray:
        return np.full(np.broadcast(
            np.asarray(toward_deg, dtype=float), np.asarray(steer_deg, dtype=float)
        ).shape, self.gain_dbi_value)

    def steer_to(self, azimuth_deg: float) -> float:
        return azimuth_deg

    def steer_to_batch(self, azimuth_deg: np.ndarray) -> np.ndarray:
        return np.asarray(azimuth_deg, dtype=float)

    def can_steer_to(self, azimuth_deg: float) -> bool:
        return True

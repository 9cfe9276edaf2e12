"""Pose-assisted fast beam tracking (section 6 of the paper, future work).

"Finding the best beam alignment is the most time consuming process in
the design, but one can leverage the tracking information provided by
the VR system to speed this process."  The VR system already knows the
headset's pose at 90 Hz with millimeter accuracy; since the AP and
reflector positions are fixed after installation, the best beam angles
can be *computed* from geometry and only locally refined, instead of
re-running the full joint sweep.

:class:`PoseAssistedTracker` implements that policy with an SNR
watchdog: as long as the link SNR stays healthy, beams follow the
geometry prediction for free; when SNR degrades, a small local sweep
re-acquires; only if that fails does the system fall back to the full
search.  The ablation benchmark quantifies the probe-count savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.beams import Codebook, single_sided_sweep
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class TrackingUpdate:
    """One tracker decision."""

    time_s: float
    predicted_angle_deg: float
    refined_angle_deg: float
    probes_used: int
    mode: str  # "predict" | "refine" | "full-search"


@dataclass
class TrackerStats:
    """Cumulative cost accounting for a tracking session."""

    updates: int = 0
    probes: int = 0
    refines: int = 0
    full_searches: int = 0

    def record(self, update: TrackingUpdate) -> None:
        self.updates += 1
        self.probes += update.probes_used
        if update.mode == "refine":
            self.refines += 1
        elif update.mode == "full-search":
            self.full_searches += 1


class PoseAssistedTracker:
    """Tracks one steerable beam toward a moving target using pose data.

    ``snr_degrade_db`` is how far SNR may fall below the running best
    before a refinement sweep is triggered; ``refine_span_deg`` is the
    width of that local sweep.
    """

    def __init__(
        self,
        anchor_position: Vec2,
        snr_degrade_db: float = 3.0,
        refine_span_deg: float = 6.0,
        refine_step_deg: float = 1.0,
        full_search_span_deg: float = 100.0,
    ) -> None:
        require_non_negative(snr_degrade_db, "snr_degrade_db")
        require_positive(refine_span_deg, "refine_span_deg")
        require_positive(refine_step_deg, "refine_step_deg")
        require_positive(full_search_span_deg, "full_search_span_deg")
        self.anchor_position = anchor_position
        self.snr_degrade_db = snr_degrade_db
        self.refine_span_deg = refine_span_deg
        self.refine_step_deg = refine_step_deg
        self.full_search_span_deg = full_search_span_deg
        self.stats = TrackerStats()
        self._reference_snr_db: Optional[float] = None
        self._current_angle_deg: Optional[float] = None

    def predict_angle_deg(self, target_position: Vec2) -> float:
        """Pure geometry: bearing from the anchor to the tracked pose."""
        return bearing_deg(self.anchor_position, target_position)

    def update(
        self,
        time_s: float,
        target_position: Vec2,
        snr_probe: Callable[[np.ndarray], np.ndarray],
    ) -> TrackingUpdate:
        """One tracking step.

        ``snr_probe(angles_deg) -> snr_db`` measures the link with the
        beam at each candidate angle, broadcast over a scalar or an
        array (one probe per angle).  The tracker spends zero probes
        while the geometric prediction keeps SNR healthy.
        """
        predicted = self.predict_angle_deg(target_position)
        # Free update: steer to the geometric prediction, verify SNR.
        snr = float(snr_probe(predicted))
        probes = 1
        mode = "predict"
        angle = predicted
        if self._reference_snr_db is None:
            self._reference_snr_db = snr
        if snr < self._reference_snr_db - self.snr_degrade_db:
            # SNR degraded: refine locally around the prediction.
            half = self.refine_span_deg / 2.0
            codebook = Codebook.uniform(
                predicted - half, predicted + half, self.refine_step_deg
            )
            angle, best_snr, swept = single_sided_sweep(codebook, snr_probe)
            probes += swept
            mode = "refine"
            if best_snr < self._reference_snr_db - self.snr_degrade_db:
                # Still bad (e.g. true blockage): full local search.
                half = self.full_search_span_deg / 2.0
                codebook = Codebook.uniform(
                    predicted - half, predicted + half, self.refine_step_deg
                )
                angle, best_snr, swept = single_sided_sweep(codebook, snr_probe)
                probes += swept
                mode = "full-search"
            snr = best_snr
        # Track the best SNR seen recently as the health reference.
        self._reference_snr_db = max(
            snr, self._reference_snr_db - 0.5
        )  # slow decay so a permanent change re-baselines
        self._current_angle_deg = angle
        update = TrackingUpdate(
            time_s=time_s,
            predicted_angle_deg=predicted,
            refined_angle_deg=angle,
            probes_used=probes,
            mode=mode,
        )
        self.stats.record(update)
        return update

    @property
    def current_angle_deg(self) -> Optional[float]:
        return self._current_angle_deg

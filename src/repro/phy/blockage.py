"""Blockage attenuation: absorption through obstacles plus diffraction.

At 24 GHz and above, the human body is effectively opaque: tissue
absorption is several dB per centimeter, so any energy that reaches the
receiver past a hand or head arrives by *diffracting around* the
obstacle.  The attenuation of a blocked path is therefore the parallel
combination of

* a **through** component — absorption over the chord the path cuts
  inside the obstacle, and
* an **around** component — single knife-edge diffraction loss, which
  depends on how deeply the path is shadowed *and* on the distances to
  the obstacle (an obstacle close to an endpoint subtends a larger
  angle and blocks more — this is why a small hand at 25 cm costs as
  much as a whole person at 2.5 m, matching Fig. 3 of the paper).

Calibration against the paper's measurements (section 3):
hand >= 14 dB, head ~ 20 dB, walking person ~ 18-22 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.geometry.raytrace import Obstruction
from repro.utils.db import db_sum_powers
from repro.utils.units import MOVR_CARRIER_HZ, wavelength
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class BlockageModel:
    """Converts :class:`Obstruction` records into attenuation in dB.

    ``absorption_db_per_m`` is the through-tissue absorption rate
    (human muscle at 24 GHz: hundreds of dB/m; the default 400 dB/m
    makes anything thicker than ~5 cm dominated by diffraction, which
    is physically right).  ``max_blockage_db`` caps the total loss —
    multipath scattering in a furnished room leaks a floor of energy
    around any single obstacle.
    """

    carrier_hz: float = MOVR_CARRIER_HZ
    absorption_db_per_m: float = 400.0
    max_blockage_db: float = 28.0

    def __post_init__(self) -> None:
        require_positive(self.carrier_hz, "carrier_hz")
        require_non_negative(self.absorption_db_per_m, "absorption_db_per_m")
        require_positive(self.max_blockage_db, "max_blockage_db")

    # ------------------------------------------------------------------

    def knife_edge_loss_db(
        self,
        shadow_depth_m: float,
        dist_to_a_m: float,
        dist_to_b_m: float,
    ) -> float:
        """Single knife-edge diffraction loss (ITU-R P.526 approximation).

        ``shadow_depth_m`` is how far the edge extends past the direct
        ray (positive = blocked, negative = clear).  ``dist_to_a_m`` /
        ``dist_to_b_m`` are distances from the edge to each endpoint.

        Uses the standard approximation
        ``J(v) = 6.9 + 20 log10(sqrt((v-0.1)^2 + 1) + v - 0.1)`` for
        ``v > -0.78`` and 0 otherwise.
        """
        d1 = max(dist_to_a_m, 1e-3)
        d2 = max(dist_to_b_m, 1e-3)
        lam = wavelength(self.carrier_hz)
        v = shadow_depth_m * math.sqrt(2.0 * (d1 + d2) / (lam * d1 * d2))
        if v <= -0.78:
            return 0.0
        return 6.9 + 20.0 * math.log10(math.sqrt((v - 0.1) ** 2 + 1.0) + v - 0.1)

    def absorption_loss_db(self, depth_m: float) -> float:
        """Through-obstacle absorption over a chord of ``depth_m``."""
        require_non_negative(depth_m, "depth_m")
        return self.absorption_db_per_m * depth_m

    def obstruction_loss_db(self, obstruction: Obstruction) -> float:
        """Total attenuation contributed by one obstruction record."""
        # Shadow depth: how far the ray is inside the occluder edge.
        shadow = -obstruction.clearance_m
        around_db = self.knife_edge_loss_db(
            shadow_depth_m=shadow,
            dist_to_a_m=obstruction.along_leg_m,
            dist_to_b_m=obstruction.leg_length_m - obstruction.along_leg_m,
        )
        through_db = self.absorption_loss_db(obstruction.depth_m)
        # Energy arrives by the stronger of the two mechanisms;
        # combine incoherently.
        combined_db = -db_sum_powers([-around_db, -through_db])
        return min(self.max_blockage_db, combined_db)

    def path_blockage_db(self, obstructions: Sequence[Obstruction]) -> float:
        """Total blockage attenuation for a path's obstruction list.

        Obstructions that overlap on the same leg (e.g. the torso and
        head circles of one person) shadow the path as a *union*, so
        only the strongest of each overlapping cluster counts;
        spatially separate obstacles (a hand near the headset plus a
        person mid-room) attenuate independently and their losses add.
        Total loss is capped at ``2 * max_blockage_db``.
        """
        clusters = self._cluster(obstructions)
        total = sum(max(self.obstruction_loss_db(o) for o in group) for group in clusters)
        return min(2.0 * self.max_blockage_db, total)

    @staticmethod
    def _cluster(
        obstructions: Sequence[Obstruction],
        merge_distance_m: float = 0.5,
    ) -> Iterable[Sequence[Obstruction]]:
        """Group obstructions that overlap along the same leg."""
        by_leg: dict = {}
        for o in obstructions:
            by_leg.setdefault(o.leg_index, []).append(o)
        clusters = []
        for leg_records in by_leg.values():
            leg_records.sort(key=lambda o: o.along_leg_m)
            group = [leg_records[0]]
            for o in leg_records[1:]:
                if o.along_leg_m - group[-1].along_leg_m <= merge_distance_m:
                    group.append(o)
                else:
                    clusters.append(group)
                    group = [o]
            clusters.append(group)
        return clusters

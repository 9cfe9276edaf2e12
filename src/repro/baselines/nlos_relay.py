"""Blockage-mitigation baselines that do not use a MoVR reflector.

Three strategies the paper considers and rejects (section 3):

* **Opt-NLOS** — steer both beams onto the best environmental
  reflection ("we sweep the mmWave beam on the transmitter and
  receiver in all directions ... and note maximum SNR across all
  non-line-of-sight paths").  This is what existing 60 GHz systems do
  for elastic traffic.
* **Dual-antenna headset** — "one cannot solve the blockage problem by
  putting another antenna on the back of the headset, since both
  antennas may get blocked."
* **Beam sweeping cost** — the exhaustive 1-degree sweep the Opt-NLOS
  procedure implies, for latency accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.geometry.room import Occluder
from repro.geometry.vectors import Vec2
from repro.link.beams import DEFAULT_PROBE_TIME_S
from repro.link.budget import LinkBudget, LinkMeasurement
from repro.link.radios import Radio


@dataclass(frozen=True)
class OptNlosResult:
    """Outcome of the Opt-NLOS fallback."""

    measurement: LinkMeasurement
    num_probes: int

    @property
    def snr_db(self) -> float:
        return self.measurement.snr_db

    def sweep_time_s(self, probe_time_s: float = DEFAULT_PROBE_TIME_S) -> float:
        return self.num_probes * probe_time_s


class OptNlosBaseline:
    """Best environmental-reflection link, LOS direction excluded."""

    def __init__(self, budget: LinkBudget, sweep_step_deg: float = 1.0) -> None:
        if sweep_step_deg <= 0.0:
            raise ValueError("sweep_step_deg must be positive")
        self.budget = budget
        self.sweep_step_deg = sweep_step_deg

    def evaluate(
        self,
        tx: Radio,
        rx: Radio,
        extra_occluders: Sequence[Occluder] = (),
    ) -> OptNlosResult:
        """Best NLOS alignment plus the cost of finding it.

        The alignment itself comes from the ray tracer (equivalent to
        the sweep's argmax); the probe count is what the exhaustive
        joint 1-degree sweep would have spent, as in the paper's
        methodology.
        """
        measurement = self.budget.best_alignment(
            tx, rx, extra_occluders=extra_occluders, include_los=False
        )
        # Joint sweep size over each radio's scan range.
        tx_angles = int(2 * tx.config.array.max_scan_deg / self.sweep_step_deg) + 1
        rx_angles = int(2 * rx.config.array.max_scan_deg / self.sweep_step_deg) + 1
        return OptNlosResult(measurement=measurement, num_probes=tx_angles * rx_angles)


@dataclass(frozen=True)
class DualAntennaResult:
    """Outcome of the front+back dual-antenna strategy."""

    front_snr_db: float
    back_snr_db: float

    @property
    def snr_db(self) -> float:
        return max(self.front_snr_db, self.back_snr_db)


class DualAntennaBaseline:
    """A second receiver on the back of the headset.

    Both antennas measure their own direct path to the AP; each can be
    independently occluded (the back antenna by the player's own head
    and body whenever the player faces the AP, plus anything else in
    the room).
    """

    #: Offset of each antenna from the head center, along/against yaw.
    MOUNT_OFFSET_M = 0.10

    def __init__(self, budget: LinkBudget) -> None:
        self.budget = budget

    def evaluate(
        self,
        ap: Radio,
        head_position: Vec2,
        yaw_deg: float,
        radio_template: Radio,
        extra_occluders: Sequence[Occluder] = (),
    ) -> DualAntennaResult:
        from repro.geometry.bodies import head_occluder  # local: avoids cycle

        snrs = []
        for direction in (0.0, 180.0):
            mount_yaw = yaw_deg + direction
            position = head_position + Vec2.from_polar(self.MOUNT_OFFSET_M, mount_yaw)
            radio = radio_template.moved_to(position, boresight_deg=mount_yaw)
            # The player's own head always occludes the hemisphere
            # behind each antenna.
            occluders = list(extra_occluders) + [head_occluder(head_position)]
            los = self.budget.cache.line_of_sight(ap.position, radio.position, occluders)
            m = self.budget.measure_aligned(ap, radio, los, extra_occluders=occluders)
            snrs.append(m.snr_db)
        return DualAntennaResult(front_snr_db=snrs[0], back_snr_db=snrs[1])

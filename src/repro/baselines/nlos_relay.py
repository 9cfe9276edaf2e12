"""Blockage-mitigation baselines that do not use a MoVR reflector.

The paper's Opt-NLOS strategy (section 3):

* **Opt-NLOS** — steer both beams onto the best environmental
  reflection ("we sweep the mmWave beam on the transmitter and
  receiver in all directions ... and note maximum SNR across all
  non-line-of-sight paths").  This is what existing 60 GHz systems do
  for elastic traffic.
* **Beam sweeping cost** — the exhaustive 1-degree sweep the Opt-NLOS
  procedure implies, for latency accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.geometry.room import Occluder
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

"""SINR analysis: multiple mmWave links sharing a room.

The paper deploys a single AP-headset pair.  A natural deployment
question is coexistence: two players (or a neighbour's setup) in the
same space.  Highly directional beams provide spatial isolation, but a
victim receiver whose beam happens to point *through* an interfering
transmitter's beam still collects energy; this module turns the
existing link-budget machinery into SINR accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.geometry.room import Occluder
from repro.link.budget import LinkBudget
from repro.link.radios import Radio
from repro.utils.db import db_sum_powers


@dataclass(frozen=True)
class SinrMeasurement:
    """One victim link evaluated under interference."""

    signal_dbm: float
    interference_dbm: float
    noise_floor_dbm: float
    sinr_db: float
    snr_db: float

    @property
    def interference_penalty_db(self) -> float:
        """SNR lost to interference (0 when interference-free)."""
        return self.snr_db - self.sinr_db


def sinr_db(
    signal_dbm: float,
    interference_dbm: float,
    noise_floor_dbm: float,
) -> float:
    """Signal over (interference + noise), all in dB/dBm.

    >>> round(sinr_db(-40.0, -math.inf, -70.0), 1)
    30.0
    """
    if signal_dbm == -math.inf:
        return -math.inf
    denominator = db_sum_powers([interference_dbm, noise_floor_dbm])
    return signal_dbm - denominator


class InterferenceAnalyzer:
    """Evaluates victim links in the presence of other transmitters."""

    def __init__(self, budget: LinkBudget) -> None:
        self.budget = budget

    def interference_power_dbm(
        self,
        interferer: Radio,
        victim_rx: Radio,
        victim_steer_deg: float,
        extra_occluders: Sequence[Occluder] = (),
    ) -> float:
        """Power the victim collects from one interfering transmitter.

        The interferer keeps its *own* steering (it is serving its own
        headset); the victim keeps its beam where its own link needs it
        — interference is whatever leaks through that geometry.
        """
        measurement = self.budget.measure(
            interferer,
            victim_rx,
            tx_steer_deg=interferer.steering_deg,
            rx_steer_deg=victim_steer_deg,
            extra_occluders=extra_occluders,
        )
        return measurement.received_power_dbm

    def victim_sinr(
        self,
        tx: Radio,
        victim_rx: Radio,
        interferers: Sequence[Radio],
        extra_occluders: Sequence[Occluder] = (),
    ) -> SinrMeasurement:
        """SINR of the tx -> victim link with every beam as currently
        steered (callers aim the radios first)."""
        desired = self.budget.measure(
            tx,
            victim_rx,
            tx_steer_deg=tx.steering_deg,
            rx_steer_deg=victim_rx.steering_deg,
            extra_occluders=extra_occluders,
        )
        interference_terms: List[float] = []
        for interferer in interferers:
            interference_terms.append(
                self.interference_power_dbm(
                    interferer,
                    victim_rx,
                    victim_rx.steering_deg,
                    extra_occluders=extra_occluders,
                )
            )
        total_interference = db_sum_powers(interference_terms)
        noise = victim_rx.config.noise_floor_dbm
        value = sinr_db(desired.received_power_dbm, total_interference, noise)
        return SinrMeasurement(
            signal_dbm=desired.received_power_dbm,
            interference_dbm=total_interference,
            noise_floor_dbm=noise,
            sinr_db=value,
            snr_db=desired.snr_db,
        )

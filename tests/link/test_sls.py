"""Unit tests for the 802.11ad sector-level sweep baseline."""

import math

import numpy as np
import pytest

from repro.link.beams import Codebook
from repro.link.sls import (
    QUASI_OMNI_PENALTY_DB,
    SSW_FRAME_TIME_S,
    SlsResult,
    sector_level_sweep,
    sls_probe_count,
)


def planted_peak(tx_peak: float, rx_peak: float, height: float = 30.0):
    def metric(tx, rx):
        return height - 0.1 * ((tx - tx_peak) ** 2 + (rx - rx_peak) ** 2)

    return metric


class TestSectorLevelSweep:
    def test_finds_strong_peak(self):
        initiator = Codebook.uniform(0.0, 100.0, 5.0)
        responder = Codebook.uniform(0.0, 100.0, 5.0)
        result = sector_level_sweep(
            initiator, responder, planted_peak(40.0, 60.0), detection_floor_db=0.0
        )
        assert result.detected
        assert abs(result.initiator_sector_deg - 40.0) <= 5.0
        assert abs(result.responder_sector_deg - 60.0) <= 5.0

    def test_linear_probe_count(self):
        initiator = Codebook.uniform(0.0, 100.0, 5.0)
        responder = Codebook.uniform(0.0, 100.0, 10.0)
        result = sector_level_sweep(initiator, responder, planted_peak(50.0, 50.0))
        assert result.num_frames == len(initiator) + len(responder)

    def test_weak_link_missed(self):
        """A link that only closes with both beams aligned falls below
        the quasi-omni detection floor — the reflector-echo failure
        mode that motivates MoVR's modulated backscatter search."""
        initiator = Codebook.uniform(0.0, 100.0, 5.0)
        responder = Codebook.uniform(0.0, 100.0, 5.0)
        weak = planted_peak(40.0, 60.0, height=10.0)
        result = sector_level_sweep(initiator, responder, weak, detection_floor_db=0.0)
        assert not result.detected

    def test_quasi_omni_penalty_applied(self):
        # Height just above the floor + penalty: detected.  Just below:
        # missed.
        initiator = Codebook.uniform(40.0, 60.0, 5.0)
        responder = Codebook.uniform(40.0, 60.0, 5.0)
        just_above = planted_peak(50.0, 50.0, height=QUASI_OMNI_PENALTY_DB + 1.0)
        just_below = planted_peak(50.0, 50.0, height=QUASI_OMNI_PENALTY_DB - 1.0)
        assert sector_level_sweep(initiator, responder, just_above).detected
        assert not sector_level_sweep(initiator, responder, just_below).detected

    def test_one_metric_call_per_phase(self):
        calls = []

        def metric(tx, rx):
            calls.append((np.shape(tx), np.shape(rx)))
            return planted_peak(40.0, 60.0)(tx, rx)

        initiator = Codebook.uniform(0.0, 100.0, 5.0)
        responder = Codebook.uniform(0.0, 100.0, 10.0)
        sector_level_sweep(initiator, responder, metric)
        assert calls == [((21,), ()), ((), (11,))]

    def test_nan_probes_are_unusable(self):
        initiator = Codebook.uniform(40.0, 60.0, 5.0)
        responder = Codebook.uniform(40.0, 60.0, 5.0)
        strong = planted_peak(50.0, 50.0)

        def metric(tx, rx):
            return np.where(np.asarray(tx) == 50.0, np.nan, strong(tx, rx))

        result = sector_level_sweep(initiator, responder, metric)
        assert result.detected
        assert result.initiator_sector_deg == 45.0

    def test_all_unusable_falls_back_to_centers(self):
        initiator = Codebook.uniform(40.0, 60.0, 5.0)
        responder = Codebook.uniform(0.0, 20.0, 5.0)
        result = sector_level_sweep(initiator, responder, lambda tx, rx: np.nan)
        assert not result.detected
        assert result.initiator_sector_deg == 50.0
        assert result.responder_sector_deg == 10.0
        assert result.best_metric_db == -math.inf
        assert result.num_frames == 10

    def test_sweep_time(self):
        result = SlsResult(0.0, 0.0, 0.0, num_frames=100, detected=True)
        assert result.sweep_time_s() == pytest.approx(100 * SSW_FRAME_TIME_S)


class TestProbeCount:
    def test_additive(self):
        assert sls_probe_count(121, 101) == 222

    def test_validation(self):
        with pytest.raises(ValueError):
            sls_probe_count(0, 10)

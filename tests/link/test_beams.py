"""Unit tests for beam codebooks and searches.

Every sweep takes one broadcast metric: it is called once with the
whole angle grid and returns one value per probe.
"""

import math

import numpy as np
import pytest

from repro.link.beams import (
    DEFAULT_PROBE_TIME_S,
    Codebook,
    SweepResult,
    exhaustive_joint_sweep,
    hierarchical_joint_sweep,
    single_sided_sweep,
)


def planted_peak_metric(peak_tx: float, peak_rx: float, width: float = 8.0):
    """A smooth unimodal metric peaking at (peak_tx, peak_rx)."""

    def metric(tx, rx):
        return -((tx - peak_tx) ** 2 + (rx - peak_rx) ** 2) / width

    return metric


class TestCodebook:
    def test_uniform_inclusive(self):
        cb = Codebook.uniform(40.0, 140.0, 1.0)
        assert len(cb) == 101
        assert cb.angles_deg[0] == 40.0
        assert cb.angles_deg[-1] == 140.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            Codebook.uniform(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            Codebook.uniform(10.0, 0.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Codebook(angles_deg=())

    def test_nearest(self):
        cb = Codebook.uniform(0.0, 10.0, 2.0)
        assert cb.nearest(5.1) == 6.0
        assert cb.nearest(-3.0) == 0.0


class TestExhaustiveSweep:
    def test_finds_planted_peak(self):
        tx_cb = Codebook.uniform(0.0, 100.0, 1.0)
        rx_cb = Codebook.uniform(0.0, 100.0, 1.0)
        result = exhaustive_joint_sweep(tx_cb, rx_cb, planted_peak_metric(37.0, 61.0))
        assert result.best_tx_deg == 37.0
        assert result.best_rx_deg == 61.0
        assert result.num_probes == 101 * 101

    def test_keep_map(self):
        tx_cb = Codebook.uniform(0.0, 10.0, 5.0)
        rx_cb = Codebook.uniform(0.0, 10.0, 5.0)
        result = exhaustive_joint_sweep(
            tx_cb, rx_cb, planted_peak_metric(5.0, 5.0), keep_map=True
        )
        assert result.metric_map.shape == (3, 3)
        assert result.metric_map.max() == result.best_metric

    def test_sweep_time(self):
        result = SweepResult(0.0, 0.0, 0.0, num_probes=1000)
        assert result.search_time_s() == pytest.approx(1000 * DEFAULT_PROBE_TIME_S)


class TestHierarchicalSweep:
    def test_finds_peak_cheaper(self):
        metric = planted_peak_metric(72.0, 72.0, width=50.0)
        exhaustive = exhaustive_joint_sweep(
            Codebook.uniform(40.0, 140.0, 1.0),
            Codebook.uniform(40.0, 140.0, 1.0),
            metric,
        )
        hierarchical = hierarchical_joint_sweep((40.0, 140.0), (40.0, 140.0), metric)
        assert hierarchical.num_probes < exhaustive.num_probes / 3
        assert abs(hierarchical.best_tx_deg - 72.0) <= 1.0
        assert abs(hierarchical.best_rx_deg - 72.0) <= 1.0

    def test_validation(self):
        metric = planted_peak_metric(50.0, 50.0)
        with pytest.raises(ValueError):
            hierarchical_joint_sweep(
                (0.0, 100.0), (0.0, 100.0), metric, coarse_step_deg=0.0
            )
        with pytest.raises(ValueError):
            hierarchical_joint_sweep(
                (0.0, 100.0),
                (0.0, 100.0),
                metric,
                coarse_step_deg=1.0,
                fine_step_deg=(1.0, 2.0),
            )


class TestSingleSidedSweep:
    def test_finds_peak(self):
        cb = Codebook.uniform(0.0, 100.0, 1.0)
        angle, value, probes = single_sided_sweep(cb, lambda a: -abs(a - 33.0))
        assert angle == 33.0
        assert value == 0.0
        assert probes == 101

    def test_probe_count_matches_codebook(self):
        cb = Codebook.uniform(0.0, 10.0, 2.0)
        _, _, probes = single_sided_sweep(cb, lambda a: a)
        assert probes == len(cb)


class TestUnusableProbes:
    """NaN marks an unusable probe; ties go to the first probe."""

    def test_nan_probes_are_skipped(self):
        cb = Codebook.uniform(0.0, 4.0, 1.0)

        def metric(tx, rx):
            values = -np.abs(tx - 2.0) - np.abs(rx - 2.0)
            return np.where((tx == 2.0) & (rx == 2.0), np.nan, values)

        result = exhaustive_joint_sweep(cb, cb, metric, keep_map=True)
        assert result.best_metric == -1.0
        assert (result.best_tx_deg, result.best_rx_deg) == (1.0, 2.0)
        assert result.num_probes == 25
        assert math.isnan(result.metric_map[2, 2])

    def test_first_max_wins_ties(self):
        cb = Codebook.uniform(0.0, 3.0, 1.0)
        result = exhaustive_joint_sweep(cb, cb, lambda tx, rx: 0.0 * tx * rx)
        assert (result.best_tx_deg, result.best_rx_deg) == (0.0, 0.0)
        angle, value, _ = single_sided_sweep(cb, lambda a: np.minimum(a, 1.0))
        assert (angle, value) == (1.0, 1.0)

    def test_all_unusable_joint_sweep_is_the_sentinel(self):
        cb = Codebook.uniform(40.0, 60.0, 5.0)
        result = exhaustive_joint_sweep(cb, cb, lambda tx, rx: np.nan)
        assert (result.best_tx_deg, result.best_rx_deg) == (0.0, 0.0)
        assert result.best_metric == -math.inf
        assert result.num_probes == 25

    def test_all_unusable_single_sided_sweep_keeps_first_angle(self):
        cb = Codebook.uniform(40.0, 60.0, 5.0)
        angle, value, probes = single_sided_sweep(cb, lambda a: np.full(a.shape, np.nan))
        assert (angle, value, probes) == (40.0, -math.inf, 5)

    def test_all_unusable_hierarchical_sweep_stops_after_stage_one(self):
        result = hierarchical_joint_sweep(
            (40.0, 140.0), (40.0, 140.0), lambda tx, rx: np.nan
        )
        assert (result.best_tx_deg, result.best_rx_deg) == (0.0, 0.0)
        assert result.best_metric == -math.inf
        assert result.num_probes == 11 * 11


class TestMetricCalls:
    def test_joint_sweep_calls_metric_once_on_the_grid(self):
        calls = []

        def metric(tx, rx):
            calls.append((np.shape(tx), np.shape(rx)))
            return tx + rx

        exhaustive_joint_sweep(
            Codebook.uniform(0.0, 4.0, 1.0), Codebook.uniform(0.0, 2.0, 1.0), metric
        )
        assert calls == [((5, 1), (1, 3))]

    def test_hierarchical_per_side_range_and_fine_step(self):
        metric = planted_peak_metric(-3.0, 71.0, width=50.0)
        result = hierarchical_joint_sweep(
            (-15.0, 105.0), (40.0, 140.0), metric, fine_step_deg=(2.0, 1.0)
        )
        # 13 x 11 coarse probes; the refinement spans +/-6 degrees at
        # 2 deg (tx) and 1 deg (rx) around the coarse winner (-5, 70).
        assert result.num_probes == 13 * 11 + 7 * 13
        assert result.best_tx_deg == -3.0
        assert result.best_rx_deg == 71.0

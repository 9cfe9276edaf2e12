"""TimeSeries: cadence gate, decimation invariants, merge algebra.

The hypothesis properties pin the contract the SLO layer leans on:
exact aggregates (count/min/max/mean) survive decimation *exactly*,
the reservoir stays bounded, decimation is deterministic, and merging
split streams loses nothing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.telemetry.timeseries import TimeSeries

finite_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestCadenceGate:
    def test_rejects_faster_than_interval(self):
        series = TimeSeries("s", min_interval_s=0.005)
        assert series.sample(0.0, 1.0)
        assert not series.sample(0.001, 2.0)
        assert not series.sample(0.0049, 3.0)
        assert series.sample(0.005, 4.0)
        assert series.count == 2

    def test_backwards_time_reopens_gate(self):
        # Multi-session experiments restart their clock at zero; the
        # gate must not swallow the second session.
        series = TimeSeries("s", min_interval_s=0.005)
        assert series.sample(10.0, 1.0)
        assert series.sample(0.0, 2.0)
        assert series.count == 2

    def test_zero_interval_accepts_everything(self):
        series = TimeSeries("s", min_interval_s=0.0)
        for i in range(10):
            assert series.sample(0.0, float(i))
        assert series.count == 10

    def test_non_finite_rejected_loudly(self):
        series = TimeSeries("s")
        with pytest.raises(ValueError):
            series.sample(math.nan, 1.0)
        with pytest.raises(ValueError):
            series.sample(0.0, math.inf)


class TestDecimation:
    @given(st.lists(finite_values, min_size=1, max_size=500))
    @settings(max_examples=200, deadline=None)
    def test_aggregates_exact_under_decimation(self, values):
        series = TimeSeries("s", max_points=16)
        for i, v in enumerate(values):
            series.sample(float(i), v)
        assert series.count == len(values)
        assert series.minimum == min(values)
        assert series.maximum == max(values)
        assert series.total == sum(values)
        assert series.mean == pytest.approx(sum(values) / len(values))
        assert 0 < series.retained <= 16
        assert series.first_t_s == 0.0
        assert series.last_t_s == float(len(values) - 1)

    @given(st.lists(finite_values, min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_decimation_is_deterministic(self, values):
        def build():
            s = TimeSeries("s", max_points=8)
            for i, v in enumerate(values):
                s.sample(float(i), v)
            return s

        assert build().points() == build().points()

    def test_retained_points_are_a_subsequence(self):
        series = TimeSeries("s", max_points=32)
        for i in range(1000):
            series.sample(float(i), float(i))
        kept = series.points()
        assert len(kept) <= 32
        # Every retained sample is genuine (value == time here), and
        # times are strictly increasing.
        times = [t for t, _ in kept]
        assert times == sorted(times)
        assert all(t == v for t, v in kept)

    def test_quantiles_survive_decimation_within_tolerance(self):
        rng = np.random.default_rng(2016)
        values = rng.normal(10.0, 3.0, size=50_000)
        series = TimeSeries("s", max_points=256)
        for i, v in enumerate(values):
            series.sample(i * 0.001, float(v))
        kept = np.array([v for _, v in series.points()])
        assert len(kept) <= 256
        # Deterministic decimation of an i.i.d. stream is an unbiased
        # subsample; a third of a standard deviation bounds the
        # deciles-through-p99 drift at this reservoir size.
        for q in (10, 50, 90, 99):
            assert np.percentile(kept, q) == pytest.approx(
                np.percentile(values, q), abs=1.0
            )


class TestMerge:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                finite_values,
            ),
            min_size=1,
            max_size=200,
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_then_merge_equals_unsplit(self, points, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(points)))
        full = TimeSeries("s")
        for t, v in points:
            full.sample(t, v)
        left, right = TimeSeries("s"), TimeSeries("s")
        for t, v in points[:cut]:
            left.sample(t, v)
        for t, v in points[cut:]:
            right.sample(t, v)
        merged = left.merge(right)
        assert merged.count == full.count
        assert merged.total == pytest.approx(full.total)
        assert merged.minimum == full.minimum
        assert merged.maximum == full.maximum
        assert merged.first_t_s == full.first_t_s
        assert merged.last_t_s == full.last_t_s
        # Under the default capacity nothing decimates, so the merged
        # reservoir is the full multiset of samples.
        assert sorted(merged.points()) == sorted(full.points())

    def test_merge_is_pure(self):
        a, b = TimeSeries("s"), TimeSeries("s")
        a.sample(0.0, 1.0)
        b.sample(1.0, 2.0)
        merged = a.merge(b)
        assert merged.count == 2
        assert a.count == 1 and b.count == 1
        merged.sample(2.0, 3.0)
        assert a.count == 1 and b.count == 1


class TestScopeIntegration:
    def test_sample_helper_records_in_active_scope(self):
        with telemetry.scope("t") as sc:
            assert telemetry.sample("x", 0.0, 1.0)
            assert not telemetry.sample("x", 0.001, 2.0)  # default gate
            series = sc.registry.get_series("x")
            assert series is not None
            assert series.count == 1

    def test_snapshot_contains_series_summary(self):
        with telemetry.scope("t") as sc:
            telemetry.sample("x", 0.0, 1.0)
            telemetry.sample("x", 1.0, 3.0)
            snap = sc.registry.snapshot()
        assert snap["series"]["x"]["count"] == 2
        assert snap["series"]["x"]["min"] == 1.0
        assert snap["series"]["x"]["max"] == 3.0

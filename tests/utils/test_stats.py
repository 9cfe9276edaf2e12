"""Unit tests for the statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.stats import EmpiricalCdf

samples_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50
)


class TestEmpiricalCdf:
    def test_values_sorted(self):
        cdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
        assert list(cdf.values) == [1.0, 2.0, 3.0]

    def test_probabilities_end_at_one(self):
        cdf = EmpiricalCdf.from_samples([5.0, 1.0])
        assert cdf.probabilities[-1] == pytest.approx(1.0)

    def test_evaluate_below_min_is_zero(self):
        cdf = EmpiricalCdf.from_samples([1.0, 2.0])
        assert cdf.evaluate(0.5) == 0.0

    def test_evaluate_at_max_is_one(self):
        cdf = EmpiricalCdf.from_samples([1.0, 2.0])
        assert cdf.evaluate(2.0) == 1.0

    def test_evaluate_midpoint(self):
        cdf = EmpiricalCdf.from_samples([1.0, 2.0, 3.0, 4.0])
        assert cdf.evaluate(2.5) == pytest.approx(0.5)

    def test_median_and_extremes(self):
        cdf = EmpiricalCdf.from_samples([10.0, 20.0, 30.0])
        assert cdf.median == pytest.approx(20.0)
        assert cdf.minimum == 10.0
        assert cdf.maximum == 30.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_samples([])

    def test_bad_quantile_raises(self):
        cdf = EmpiricalCdf.from_samples([1.0])
        with pytest.raises(ValueError):
            cdf.percentile(1.5)

    def test_series_downsamples(self):
        cdf = EmpiricalCdf.from_samples(list(range(100)))
        series = cdf.series(num_points=10)
        assert len(series) <= 10
        assert series[0][0] == 0.0
        assert series[-1][0] == 99.0

    def test_series_rejects_single_point(self):
        cdf = EmpiricalCdf.from_samples([1.0, 2.0])
        with pytest.raises(ValueError):
            cdf.series(num_points=1)

    @given(samples_strategy)
    def test_probabilities_monotone(self, samples):
        cdf = EmpiricalCdf.from_samples(samples)
        assert np.all(np.diff(cdf.probabilities) >= 0.0)
        assert np.all(np.diff(cdf.values) >= 0.0)

    @given(samples_strategy, st.floats(min_value=-1e6, max_value=1e6))
    def test_evaluate_matches_count(self, samples, x):
        cdf = EmpiricalCdf.from_samples(samples)
        expected = sum(1 for s in samples if s <= x) / len(samples)
        assert cdf.evaluate(x) == pytest.approx(expected)

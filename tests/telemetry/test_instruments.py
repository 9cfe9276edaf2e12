"""Property tests for the metric instruments.

The histogram's contract (module docstring of
``repro.telemetry.instruments``) is pinned here with hypothesis:
quantiles are *exact* — equal to ``numpy.percentile`` over the raw
stream — until the stream outgrows the reservoir, and ``merge`` is a
pure associative combination.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.instruments import Counter, Histogram

# Bounded magnitude so exact aggregates (total) cannot overflow.
finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
streams = st.lists(finite_floats, min_size=1, max_size=300)


def fill(values, max_samples=4096) -> Histogram:
    h = Histogram("h", max_samples=max_samples)
    for v in values:
        h.record(v)
    return h


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5


class TestHistogramQuantiles:
    @given(values=streams, q=st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_quantile_matches_numpy_on_raw_stream(self, values, q):
        # While count <= max_samples the reservoir IS the stream, so
        # the histogram's quantile must equal numpy's on the raw data.
        h = fill(values)
        assert h.quantile(q) == pytest.approx(
            float(np.percentile(values, 100.0 * q)), rel=0, abs=0
        )

    @given(values=streams)
    @settings(max_examples=100, deadline=None)
    def test_exact_aggregates(self, values):
        h = fill(values)
        assert h.count == len(values)
        assert h.minimum == min(values)
        assert h.maximum == max(values)
        assert h.mean == pytest.approx(sum(values) / len(values))

    def test_rejects_non_finite(self):
        h = Histogram("h")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                h.record(bad)

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(0.5)

    def test_summary_keys(self):
        s = fill([1.0, 2.0, 3.0]).summary()
        assert set(s) == {"count", "mean", "min", "max", "p50", "p95", "p99"}
        assert s["count"] == 3
        assert s["p50"] == 2.0


class TestHistogramBoundedMemory:
    def test_reservoir_stays_bounded(self):
        h = Histogram("h", max_samples=64)
        n = 64 * 50
        for i in range(n):
            h.record(float(i))
        assert len(h.samples) < 64
        # Exact aggregates still cover the whole stream.
        assert h.count == n
        assert h.minimum == 0.0
        assert h.maximum == float(n - 1)

    def test_decimated_quantiles_stay_in_range(self):
        h = Histogram("h", max_samples=32)
        rng = np.random.default_rng(7)
        data = rng.normal(10.0, 2.0, size=5000)
        for v in data:
            h.record(float(v))
        for q in (0.05, 0.5, 0.95):
            assert h.minimum <= h.quantile(q) <= h.maximum
        # Decimation keeps coverage: the median estimate should stay
        # in the bulk of a well-behaved distribution.
        assert abs(h.quantile(0.5) - float(np.median(data))) < 1.0


class TestHistogramMerge:
    @given(a=streams, b=streams, c=streams)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        ha, hb, hc = fill(a), fill(b), fill(c)
        left = ha.merge(hb).merge(hc)
        right = ha.merge(hb.merge(hc))
        assert left.count == right.count == len(a) + len(b) + len(c)
        assert left.minimum == right.minimum
        assert left.maximum == right.maximum
        assert left.total == pytest.approx(right.total)
        # Reservoirs concatenate, so the retained samples agree exactly.
        assert left.samples == right.samples == a + b + c

    @given(a=streams, b=streams)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_pure(self, a, b):
        ha, hb = fill(a), fill(b)
        merged = ha.merge(hb)
        assert ha.count == len(a) and ha.samples == a
        assert hb.count == len(b) and hb.samples == b
        assert merged.count == len(a) + len(b)

    @given(a=streams, b=streams, q=st.sampled_from([0.25, 0.5, 0.95]))
    @settings(max_examples=100, deadline=None)
    def test_merged_quantiles_match_numpy_on_combined_stream(self, a, b, q):
        merged = fill(a).merge(fill(b))
        assert merged.quantile(q) == pytest.approx(
            float(np.percentile(a + b, 100.0 * q))
        )

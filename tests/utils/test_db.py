"""Unit tests for decibel-domain arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.db import db_sum_powers, linear_to_db


class TestConversions:
    def test_linear_to_db_known_values(self):
        assert linear_to_db(1.0) == pytest.approx(0.0)
        assert linear_to_db(100.0) == pytest.approx(20.0)
        assert linear_to_db(0.5) == pytest.approx(-3.01, abs=0.01)

    def test_linear_to_db_zero_is_minus_inf(self):
        assert linear_to_db(0.0) == -math.inf

    def test_linear_to_db_negative_is_minus_inf(self):
        assert linear_to_db(-5.0) == -math.inf

    def test_array_inputs(self):
        out = linear_to_db(np.array([1.0, 10.0, 100.0]))
        np.testing.assert_allclose(out, [0.0, 10.0, 20.0])

    def test_array_with_zeros(self):
        out = linear_to_db(np.array([1.0, 0.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == -math.inf


class TestDbSumPowers:
    def test_two_equal_powers_gain_3db(self):
        assert db_sum_powers([10.0, 10.0]) == pytest.approx(13.0103, abs=1e-3)

    def test_dominant_term_wins(self):
        # A power 30 dB below another adds ~0.004 dB.
        assert db_sum_powers([0.0, -30.0]) == pytest.approx(0.0043, abs=1e-3)

    def test_ignores_minus_inf(self):
        assert db_sum_powers([5.0, -math.inf]) == pytest.approx(5.0)

    def test_empty_is_dark(self):
        assert db_sum_powers([]) == -math.inf

    def test_all_dark_is_dark(self):
        assert db_sum_powers([-math.inf, -math.inf]) == -math.inf

    @given(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=8))
    def test_sum_at_least_max(self, powers):
        total = db_sum_powers(powers)
        assert total >= max(powers) - 1e-9

    @given(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=8))
    def test_sum_at_most_max_plus_10logn(self, powers):
        total = db_sum_powers(powers)
        bound = max(powers) + 10.0 * math.log10(len(powers))
        assert total <= bound + 1e-9

    @given(
        st.lists(st.floats(min_value=-80.0, max_value=80.0), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_sum_is_permutation_invariant(self, powers, rotation):
        rotated = powers[rotation % len(powers):] + powers[: rotation % len(powers)]
        assert db_sum_powers(rotated) == pytest.approx(db_sum_powers(powers), abs=1e-9)

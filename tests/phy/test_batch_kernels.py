"""Property tests: batch kernels must match their scalar references.

The vectorized kernels behind the sweep API are required to agree with
the original scalar implementations to within 1e-9 dB — the scalar
methods are the specification, the batch kernels merely evaluate many
angles at once.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.leakage import MAX_ANGLE_DEG, MIN_ANGLE_DEG, ReflectorLeakageModel
from repro.phy.amplifier import (
    closed_loop_gain_db,
    closed_loop_gain_db_batch,
    loop_is_stable,
)
from repro.phy.antenna import (
    MOVR_ARRAY,
    MultiPanelArray,
    PhasedArray,
    PhasedArrayConfig,
)
from repro.utils.db import db_sum_powers
from repro.utils.units import angle_difference_deg, angle_difference_deg_batch

TOL_DB = 1e-9

azimuths = st.floats(min_value=-360.0, max_value=360.0, allow_nan=False)
angle_lists = st.lists(azimuths, min_size=1, max_size=8)


@st.composite
def arrays_and_angles(draw):
    boresight = draw(st.floats(min_value=-180.0, max_value=180.0))
    toward = draw(angle_lists)
    steer = draw(angle_lists)
    return boresight, toward, steer


class TestPhasedArrayBatch:
    @given(arrays_and_angles())
    @settings(max_examples=60, deadline=None)
    def test_gain_grid_matches_scalar(self, case):
        boresight, toward, steer = case
        array = PhasedArray(MOVR_ARRAY, boresight_deg=boresight)
        grid = array.gain_dbi_batch(
            np.asarray(toward)[:, None], np.asarray(steer)[None, :]
        )
        for i, t in enumerate(toward):
            for j, s in enumerate(steer):
                assert abs(grid[i, j] - array.gain_dbi(t, steer_override_deg=s)) <= TOL_DB

    @given(st.floats(min_value=-180.0, max_value=180.0), angle_lists)
    @settings(max_examples=60, deadline=None)
    def test_steer_to_matches_scalar(self, boresight, targets):
        array = PhasedArray(MOVR_ARRAY, boresight_deg=boresight)
        batch = array.steer_to_batch(np.asarray(targets))
        for k, target in enumerate(targets):
            assert abs(batch[k] - array.steer_to(target)) <= TOL_DB


class TestMultiPanelBatch:
    @given(st.floats(min_value=-180.0, max_value=180.0), angle_lists, angle_lists)
    @settings(max_examples=40, deadline=None)
    def test_gain_grid_matches_scalar(self, boresight, toward, steer):
        config = PhasedArrayConfig(num_panels=4)
        array = MultiPanelArray(config, boresight_deg=boresight)
        grid = array.gain_dbi_batch(
            np.asarray(toward)[:, None], np.asarray(steer)[None, :]
        )
        for i, t in enumerate(toward):
            for j, s in enumerate(steer):
                assert abs(grid[i, j] - array.gain_dbi(t, steer_override_deg=s)) <= TOL_DB

    @given(st.floats(min_value=-180.0, max_value=180.0), angle_lists)
    @settings(max_examples=40, deadline=None)
    def test_steer_to_matches_scalar(self, boresight, targets):
        array = MultiPanelArray(PhasedArrayConfig(num_panels=4), boresight_deg=boresight)
        batch = array.steer_to_batch(np.asarray(targets))
        for k, target in enumerate(targets):
            assert abs(batch[k] - array.steer_to(target)) <= TOL_DB


class TestClosedLoopBatch:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=16),
        st.floats(min_value=-90.0, max_value=-10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_and_nans_unstable(self, gains, leakage):
        batch = closed_loop_gain_db_batch(np.asarray(gains), leakage)
        for k, gain in enumerate(gains):
            if loop_is_stable(gain, leakage):
                assert abs(batch[k] - closed_loop_gain_db(gain, leakage)) <= TOL_DB
            else:
                assert math.isnan(batch[k])


class TestDbSumBatch:
    @given(
        st.lists(
            st.floats(min_value=-200.0, max_value=50.0) | st.just(-math.inf),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_array_reduction_matches_iterable(self, powers):
        scalar = db_sum_powers(powers)
        batch = float(db_sum_powers(np.asarray(powers), axis=0))
        if scalar == -math.inf:
            assert batch == -math.inf
        else:
            assert abs(batch - scalar) <= TOL_DB

    def test_axis_reduction_shape(self):
        grid = np.array([[0.0, -math.inf], [3.0, -10.0]])
        per_column = db_sum_powers(grid, axis=0)
        assert per_column.shape == (2,)
        assert abs(per_column[0] - db_sum_powers([0.0, 3.0])) <= TOL_DB
        assert abs(per_column[1] - (-10.0)) <= TOL_DB


class TestAngleDifferenceBatch:
    @given(angle_lists, azimuths)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar(self, angles, reference):
        batch = angle_difference_deg_batch(np.asarray(angles), reference)
        for k, a in enumerate(angles):
            assert abs(batch[k] - angle_difference_deg(a, reference)) <= TOL_DB


class TestLeakageBatch:
    @given(
        st.lists(
            st.floats(min_value=MIN_ANGLE_DEG, max_value=MAX_ANGLE_DEG),
            min_size=1,
            max_size=6,
        ),
        st.lists(
            st.floats(min_value=MIN_ANGLE_DEG, max_value=MAX_ANGLE_DEG),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_grid_matches_scalar(self, tx_angles, rx_angles):
        model = ReflectorLeakageModel()
        grid = model.leakage_db_batch(
            np.asarray(tx_angles)[:, None], np.asarray(rx_angles)[None, :]
        )
        for i, t in enumerate(tx_angles):
            for j, r in enumerate(rx_angles):
                assert abs(grid[i, j] - model.leakage_db(t, r)) <= TOL_DB

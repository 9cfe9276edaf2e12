"""Unit tests for the link-budget engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.geometry.bodies import hand_occluder
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import rectangular_room
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkBudget, LinkMeasurement
from repro.link.radios import DEFAULT_RADIO_CONFIG, HEADSET_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel


@pytest.fixture
def setup():
    room = rectangular_room(5.0, 5.0)
    tracer = RayTracer(room)
    budget = LinkBudget(tracer, MmWaveChannel())
    tx = Radio(Vec2(0.5, 0.5), boresight_deg=45.0, name="tx")
    rx = Radio(Vec2(4.0, 4.0), boresight_deg=-135.0, name="rx")
    return budget, tx, rx


class TestMeasure:
    def test_aligned_beats_misaligned(self, setup):
        budget, tx, rx = setup
        los = budget.tracer.line_of_sight(tx.position, rx.position)
        aligned = budget.measure_aligned(tx, rx, los)
        misaligned = budget.measure(
            tx, rx, tx_steer_deg=los.departure_angle_deg + 30.0,
            rx_steer_deg=los.arrival_angle_deg + 30.0,
        )
        assert aligned.snr_db > misaligned.snr_db

    def test_los_dominant_when_aligned(self, setup):
        budget, tx, rx = setup
        los = budget.tracer.line_of_sight(tx.position, rx.position)
        m = budget.measure_aligned(tx, rx, los)
        assert m.dominant_path is not None
        assert m.dominant_path.is_line_of_sight

    def test_blockage_reduces_snr(self, setup):
        budget, tx, rx = setup
        los = budget.tracer.line_of_sight(tx.position, rx.position)
        clear = budget.measure_aligned(tx, rx, los)
        hand = hand_occluder(rx.position, bearing_deg(rx.position, tx.position))
        blocked = budget.measure_aligned(tx, rx, los, extra_occluders=[hand])
        assert blocked.snr_db < clear.snr_db - 8.0

    def test_budget_form(self, setup):
        """Received power decomposes into the textbook terms."""
        budget, tx, rx = setup
        los = budget.tracer.line_of_sight(tx.position, rx.position)
        power = budget.path_powers_dbm(
            tx, rx, [los], los.departure_angle_deg, los.arrival_angle_deg
        )[0]
        expected = (
            tx.config.tx_power_dbm
            + tx.tx_gain_dbi(los.departure_angle_deg,
                             steer_override_deg=los.departure_angle_deg)
            + rx.rx_gain_dbi(los.arrival_angle_deg,
                             steer_override_deg=los.arrival_angle_deg)
            + budget.channel.path_gain_db(los)
            - tx.config.implementation_loss_db
        )
        assert power == pytest.approx(expected)

    def test_measure_with_paths_matches_measure(self, setup):
        budget, tx, rx = setup
        paths = budget.tracer.all_paths(tx.position, rx.position)
        a = budget.measure(tx, rx, 45.0, -135.0)
        b = budget.measure_with_paths(tx, rx, paths, 45.0, -135.0)
        assert a.snr_db == pytest.approx(b.snr_db)
        assert a.received_power_dbm == pytest.approx(b.received_power_dbm)


def per_path_powers(budget, tx, rx, paths, tx_steer, rx_steer):
    """Reference for ``path_powers_dbm``: one kernel call per path and side."""
    tx_steer = np.asarray(tx_steer, dtype=float)
    rx_steer = np.asarray(rx_steer, dtype=float)
    shape = np.broadcast(tx_steer, rx_steer).shape
    const = tx.config.tx_power_dbm - tx.config.implementation_loss_db
    rows = []
    for path in paths:
        tx_gain = tx.array.gain_dbi_batch(path.departure_angle_deg, tx_steer)
        rx_gain = rx.array.gain_dbi_batch(path.arrival_angle_deg, rx_steer)
        rows.append(
            np.broadcast_to(
                const + budget.channel.path_gain_db(path) + tx_gain + rx_gain, shape
            )
        )
    return np.stack(rows)


angles = st.floats(min_value=-180.0, max_value=180.0)


def steering_grids():
    """(tx, rx) steering: scalars, 1-D pair vectors, or a 2-D outer grid."""
    scalar = st.tuples(angles, angles)
    vector = st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(angles, min_size=n, max_size=n),
            st.lists(angles, min_size=n, max_size=n),
        )
    )
    grid = st.tuples(
        st.lists(angles, min_size=1, max_size=5).map(lambda a: np.array(a)[:, None]),
        st.lists(angles, min_size=1, max_size=5).map(lambda a: np.array(a)[None, :]),
    )
    return st.one_of(scalar, vector, grid)


class TestPathPowers:
    @settings(max_examples=60, deadline=None)
    @given(
        tx_panels=st.booleans(),
        rx_panels=st.booleans(),
        rx_x=st.floats(1.0, 4.5),
        rx_y=st.floats(1.0, 4.5),
        steering=steering_grids(),
    )
    def test_matches_per_path_loop(self, tx_panels, rx_panels, rx_x, rx_y, steering):
        budget = LinkBudget(
            RayTracer(rectangular_room(5.0, 5.0)), MmWaveChannel(shadowing_sigma_db=0.0)
        )

        def config(panels):
            return HEADSET_RADIO_CONFIG if panels else DEFAULT_RADIO_CONFIG

        tx = Radio(Vec2(0.5, 0.5), 45.0, config=config(tx_panels))
        rx = Radio(Vec2(rx_x, rx_y), -135.0, config=config(rx_panels))
        paths = budget.tracer.all_paths(tx.position, rx.position)
        tx_steer, rx_steer = steering
        got = budget.path_powers_dbm(tx, rx, paths, tx_steer, rx_steer)
        want = per_path_powers(budget, tx, rx, paths, tx_steer, rx_steer)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("config", [DEFAULT_RADIO_CONFIG, HEADSET_RADIO_CONFIG])
    def test_measure_makes_one_kernel_batch_per_side(self, setup, config):
        budget, tx, _ = setup
        rx = Radio(Vec2(4.0, 4.0), -135.0, config=config)
        paths = budget.tracer.all_paths(tx.position, rx.position)
        assert len(paths) > 2
        with telemetry.scope("kernels") as sc:
            budget.measure_with_paths(tx, rx, paths, 45.0, -135.0)
        assert sc.registry.counter_value("kernel.batches") == 2
        assert sc.registry.counter_value("kernel.angles") == 2 * len(paths)


class TestBestAlignment:
    def test_includes_los_by_default(self, setup):
        budget, tx, rx = setup
        best = budget.best_alignment(tx, rx)
        assert best.dominant_path.is_line_of_sight

    def test_exclude_los_forces_reflection(self, setup):
        budget, tx, rx = setup
        best = budget.best_alignment(tx, rx, include_los=False)
        assert not best.dominant_path.is_line_of_sight
        assert best.snr_db < budget.best_alignment(tx, rx).snr_db

    def test_opt_nlos_weaker_than_los(self, setup):
        budget, tx, rx = setup
        los = budget.best_alignment(tx, rx).snr_db
        nlos = budget.best_alignment(tx, rx, include_los=False).snr_db
        # Reflection loss + longer path: several dB gap.
        assert los - nlos > 5.0

    def test_empty_path_set_is_outage(self, setup):
        budget, tx, rx = setup
        # A single-bounce-only query in a room with all paths blocked
        # cannot happen geometrically, so exercise the guard directly.
        measurement = budget.best_alignment(tx, rx, include_los=False, max_bounces=1)
        assert isinstance(measurement, LinkMeasurement)


class TestLinkMeasurement:
    def test_outage_flag(self):
        m = LinkMeasurement(
            received_power_dbm=-math.inf,
            snr_db=-math.inf,
            dominant_path=None,
            tx_steer_deg=0.0,
            rx_steer_deg=0.0,
        )
        assert m.in_outage

    def test_not_outage(self, setup):
        budget, tx, rx = setup
        best = budget.best_alignment(tx, rx)
        assert not best.in_outage

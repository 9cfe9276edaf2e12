"""Unit tests for the Opt-NLOS, dual-antenna, multi-AP and mirror baselines."""

import math

import pytest

from repro.baselines.multi_ap import (
    MultiApBaseline,
    movr_deployment_cost,
)
from repro.baselines.nlos_relay import OptNlosBaseline
from repro.baselines.static_mirror import (
    StaticMirrorBaseline,
    wall_panel,
)
from repro.geometry.bodies import hand_occluder
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkBudget
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel


@pytest.fixture(scope="module")
def scene():
    room = standard_office(furnished=False)
    tracer = RayTracer(room)
    budget = LinkBudget(tracer, MmWaveChannel())
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, name="ap")
    return room, budget, ap


def headset_at(x, y, yaw=0.0):
    return Radio(Vec2(x, y), boresight_deg=yaw, config=HEADSET_RADIO_CONFIG)


class TestOptNlos:
    def test_weaker_than_los(self, scene):
        room, budget, ap = scene
        hs = headset_at(3.0, 3.0)
        los = budget.best_alignment(ap, hs).snr_db
        result = OptNlosBaseline(budget).evaluate(ap, hs)
        assert result.snr_db < los - 5.0

    def test_probe_count_is_joint_sweep(self, scene):
        room, budget, ap = scene
        hs = headset_at(3.0, 3.0)
        result = OptNlosBaseline(budget, sweep_step_deg=1.0).evaluate(ap, hs)
        # 121 AP angles x 341 headset panel angles... both scan ranges.
        tx_angles = int(2 * ap.config.array.max_scan_deg) + 1
        rx_angles = int(2 * hs.config.array.max_scan_deg) + 1
        assert result.num_probes == tx_angles * rx_angles

    def test_step_validation(self, scene):
        room, budget, ap = scene
        with pytest.raises(ValueError):
            OptNlosBaseline(budget, sweep_step_deg=0.0)


class TestMultiAp:
    def test_best_ap_selected(self, scene):
        room, budget, ap = scene
        baseline = MultiApBaseline(
            budget,
            ap_positions=[Vec2(0.3, 0.3), Vec2(4.7, 4.7)],
            console_position=Vec2(0.3, 0.3),
        )
        hs = headset_at(4.0, 4.0)
        result = baseline.evaluate(hs)
        assert result.serving_ap_index == 1  # the nearer AP

    def test_survives_single_blockage(self, scene):
        room, budget, ap = scene
        baseline = MultiApBaseline(
            budget,
            ap_positions=[Vec2(0.3, 0.3), Vec2(4.7, 4.7)],
            console_position=Vec2(0.3, 0.3),
        )
        hs = headset_at(2.5, 2.5)
        hand = hand_occluder(hs.position, bearing_deg(hs.position, Vec2(0.3, 0.3)))
        result = baseline.evaluate(hs, extra_occluders=[hand])
        assert result.snr_db > 15.0  # the far AP still sees it

    def test_cost_scales_with_aps(self, scene):
        room, budget, ap = scene
        small = MultiApBaseline(
            budget, [Vec2(0.3, 0.3)], console_position=Vec2(0.3, 0.3)
        ).deployment_cost()
        large = MultiApBaseline(
            budget,
            [Vec2(0.3, 0.3), Vec2(4.7, 0.3), Vec2(2.5, 4.7)],
            console_position=Vec2(0.3, 0.3),
        ).deployment_cost()
        assert large.cable_meters > small.cable_meters
        assert large.num_transceivers > small.num_transceivers

    def test_movr_cost_flat(self):
        cost = movr_deployment_cost(2)
        assert cost.num_transceivers == 2
        assert cost.cable_meters == pytest.approx(2.0)

    def test_empty_positions_rejected(self, scene):
        room, budget, ap = scene
        with pytest.raises(ValueError):
            MultiApBaseline(budget, [], console_position=Vec2(0, 0))


class TestStaticMirror:
    def test_mirror_path_exists_for_favourable_geometry(self, scene):
        room, budget, ap = scene
        panel = wall_panel(Vec2(0.0, 5.0), Vec2(5.0, 5.0), 0.5, 2.0)
        baseline = StaticMirrorBaseline(room, [panel], budget.channel)
        hs = headset_at(4.0, 1.0)
        result = baseline.evaluate(ap, hs)
        assert math.isfinite(result.snr_db)
        # The mirror bounce beats an equivalent drywall bounce.
        drywall = budget.best_alignment(ap, hs, include_los=False)
        assert result.snr_db >= drywall.snr_db - 1.0

    def test_useless_for_unfavourable_geometry(self, scene):
        room, budget, ap = scene
        # A tiny panel in a corner the geometry can't reach.
        panel = wall_panel(Vec2(0.0, 0.0), Vec2(0.0, 5.0), 0.02, 0.05)
        baseline = StaticMirrorBaseline(room, [panel], budget.channel)
        hs = headset_at(0.5, 4.0)
        result = baseline.evaluate(ap, hs)
        los = budget.best_alignment(ap, hs).snr_db
        assert result.snr_db < los

    def test_panel_validation(self):
        with pytest.raises(ValueError):
            wall_panel(Vec2(0, 0), Vec2(1, 0), center_fraction=0.0)
        with pytest.raises(ValueError):
            wall_panel(Vec2(0, 0), Vec2(1, 0), panel_length_m=0.0)

    def test_needs_panels(self, scene):
        room, budget, ap = scene
        with pytest.raises(ValueError):
            StaticMirrorBaseline(room, [], budget.channel)

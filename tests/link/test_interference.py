"""Unit tests for SINR analysis."""

import math

import pytest

from repro.geometry.raytrace import RayTracer
from repro.geometry.room import rectangular_room
from repro.geometry.vectors import Vec2
from repro.link.budget import LinkBudget
from repro.link.interference import InterferenceAnalyzer, sinr_db
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel


class TestSinrDb:
    def test_no_interference_is_snr(self):
        assert sinr_db(-40.0, -math.inf, -70.0) == pytest.approx(30.0)

    def test_equal_interference_and_noise_cost_3db(self):
        assert sinr_db(-40.0, -70.0, -70.0) == pytest.approx(26.99, abs=0.01)

    def test_strong_interference_dominates(self):
        assert sinr_db(-40.0, -45.0, -70.0) == pytest.approx(5.0, abs=0.1)

    def test_dark_signal(self):
        assert sinr_db(-math.inf, -60.0, -70.0) == -math.inf


@pytest.fixture(scope="module")
def scene():
    room = rectangular_room(5.0, 5.0)
    budget = LinkBudget(RayTracer(room), MmWaveChannel(shadowing_sigma_db=0.0))
    return budget, InterferenceAnalyzer(budget)


class TestInterferenceAnalyzer:
    def test_isolated_geometry_small_penalty(self, scene):
        budget, analyzer = scene
        # Two links pointing away from each other.
        ap1 = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, name="ap1")
        hs1 = Radio(Vec2(1.5, 1.5), boresight_deg=0.0, config=HEADSET_RADIO_CONFIG)
        ap2 = Radio(Vec2(4.7, 4.7), boresight_deg=-135.0, name="ap2")
        ap1.point_at(hs1.position)
        hs1.point_at(ap1.position)
        ap2.point_at(Vec2(3.5, 3.5))  # serving someone far away
        m = analyzer.victim_sinr(ap1, hs1, interferers=[ap2])
        assert m.interference_penalty_db < 1.0
        assert m.sinr_db > 20.0

    def test_inline_geometry_large_penalty(self, scene):
        budget, analyzer = scene
        # The interferer sits behind the serving AP, beaming at a
        # target just past the victim: the victim's receive beam stares
        # straight into the interferer's beam.
        ap1 = Radio(Vec2(0.3, 2.5), boresight_deg=0.0, name="ap1")
        hs1 = Radio(Vec2(2.5, 2.5), boresight_deg=0.0, config=HEADSET_RADIO_CONFIG)
        ap2 = Radio(Vec2(0.8, 2.5), boresight_deg=0.0, name="ap2")
        ap1.point_at(hs1.position)
        hs1.point_at(ap1.position)
        ap2.point_at(Vec2(3.2, 2.5))
        m = analyzer.victim_sinr(ap1, hs1, interferers=[ap2])
        assert m.interference_penalty_db > 3.0
        assert m.sinr_db < m.snr_db

    def test_no_interferers(self, scene):
        budget, analyzer = scene
        ap1 = Radio(Vec2(0.3, 0.3), boresight_deg=45.0)
        hs1 = Radio(Vec2(2.5, 2.5), boresight_deg=0.0, config=HEADSET_RADIO_CONFIG)
        ap1.point_at(hs1.position)
        hs1.point_at(ap1.position)
        m = analyzer.victim_sinr(ap1, hs1, interferers=[])
        assert m.sinr_db == pytest.approx(m.snr_db)
        assert m.interference_penalty_db == pytest.approx(0.0)

    def test_two_interferers_add(self, scene):
        budget, analyzer = scene
        ap1 = Radio(Vec2(0.3, 2.5), boresight_deg=0.0)
        hs1 = Radio(Vec2(2.5, 2.5), boresight_deg=0.0, config=HEADSET_RADIO_CONFIG)
        intf_a = Radio(Vec2(0.8, 2.5), boresight_deg=0.0, name="a")
        intf_b = Radio(Vec2(1.0, 2.5), boresight_deg=0.0, name="b")
        for radio in (intf_a, intf_b):
            radio.point_at(Vec2(3.2, 2.5))
        ap1.point_at(hs1.position)
        hs1.point_at(ap1.position)
        one = analyzer.victim_sinr(ap1, hs1, interferers=[intf_a])
        two = analyzer.victim_sinr(ap1, hs1, interferers=[intf_a, intf_b])
        assert two.sinr_db < one.sinr_db

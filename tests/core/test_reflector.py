"""Unit tests for the MoVR reflector device."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reflector import REFLECTOR_SCAN_DEG, MoVRReflector
from repro.geometry.vectors import Vec2
from repro.phy.amplifier import loop_is_stable


@pytest.fixture
def reflector():
    return MoVRReflector(Vec2(4.7, 4.7), boresight_deg=-135.0)


class TestAngleConventions:
    def test_boresight_is_90_prototype(self, reflector):
        assert reflector.azimuth_to_prototype(-135.0) == pytest.approx(90.0)

    def test_round_trip(self, reflector):
        for proto in (40.0, 75.0, 90.0, 120.0, 140.0):
            azimuth = reflector.prototype_to_azimuth(proto)
            assert reflector.azimuth_to_prototype(azimuth) == pytest.approx(proto)

    def test_out_of_range_clipped(self, reflector):
        assert reflector.azimuth_to_prototype(-135.0 + 80.0) == 140.0
        assert reflector.azimuth_to_prototype(-135.0 - 80.0) == 40.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_prototype_offset_tracks_relative_angle(self, offset):
        reflector = MoVRReflector(Vec2(0, 0), boresight_deg=30.0)
        proto = reflector.azimuth_to_prototype(30.0 + offset)
        assert proto == pytest.approx(90.0 + offset, abs=1e-9)


class TestBeamControl:
    def test_set_beams(self, reflector):
        rx, tx = reflector.set_beams(-135.0 + 20.0, -135.0 - 30.0)
        assert rx == pytest.approx(-115.0)
        assert tx == pytest.approx(-165.0)
        assert reflector.rx_azimuth_deg == pytest.approx(-115.0)
        assert reflector.tx_azimuth_deg == pytest.approx(-165.0)

    def test_scan_clipping(self, reflector):
        rx, _ = reflector.set_beams(-135.0 + 80.0, -135.0)
        assert rx == pytest.approx(-135.0 + REFLECTOR_SCAN_DEG)

    def test_point_at(self, reflector):
        ap = Vec2(0.3, 0.3)
        hs = Vec2(2.5, 3.0)
        reflector.point_at(ap, hs)
        from repro.geometry.vectors import bearing_deg

        assert reflector.rx_azimuth_deg == pytest.approx(
            bearing_deg(reflector.position, ap), abs=0.1
        )
        assert reflector.tx_azimuth_deg == pytest.approx(
            bearing_deg(reflector.position, hs), abs=0.1
        )

    def test_can_serve(self, reflector):
        assert reflector.can_serve(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        # A target behind the mounting wall is unreachable.
        assert not reflector.can_serve(Vec2(0.3, 0.3), Vec2(6.0, 6.0))

    def test_state_snapshot(self, reflector):
        reflector.set_beams(-135.0, -135.0)
        reflector.amplifier.set_gain_db(30.0)
        state = reflector.state()
        assert state.gain_db == 30.0
        assert not state.modulation_on


class TestFeedbackBehaviour:
    def test_stability_matches_criterion(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        leak = reflector.leakage_db()
        reflector.amplifier.set_gain_db(-leak - 5.0)
        assert reflector.is_stable()
        assert loop_is_stable(reflector.amplifier.gain_db, leak)

    def test_effective_gain_exceeds_raw_gain(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        reflector.amplifier.set_gain_db(40.0)
        effective = reflector.effective_gain_db()
        assert effective is not None
        assert effective >= 40.0

    def test_unstable_returns_none(self):
        # Force instability with a deliberately leaky model.
        from repro.core.leakage import ReflectorLeakageModel

        leaky = ReflectorLeakageModel(
            edge_diffraction_loss_db=1.0,
            board_isolation_db=40.0,
        )
        reflector = MoVRReflector(
            Vec2(4.7, 4.7), boresight_deg=-135.0, leakage=leaky
        )
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        reflector.amplifier.set_gain_db(60.0)
        if not reflector.is_stable():
            assert reflector.effective_gain_db() is None
            assert reflector.output_power_dbm(-50.0) == pytest.approx(
                reflector.amplifier.spec.psat_dbm
            )

    def test_output_capped_at_psat(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        reflector.amplifier.set_gain_db(55.0)
        assert reflector.output_power_dbm(0.0) < reflector.amplifier.spec.psat_dbm

    def test_output_linear_for_weak_input(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        reflector.amplifier.set_gain_db(20.0)
        effective = reflector.effective_gain_db()
        out = reflector.output_power_dbm(-60.0)
        assert out == pytest.approx(-60.0 + effective, abs=0.5)

    def test_current_rises_with_gain(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        currents = []
        for gain in (10.0, 40.0, 55.0, 60.0):
            reflector.amplifier.set_gain_db(gain)
            currents.append(reflector.current_draw_ma(-48.0))
        assert currents == sorted(currents)
        assert currents[-1] > currents[0] + 20.0

    def test_is_saturated_at(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        reflector.amplifier.set_gain_db(10.0)
        assert not reflector.is_saturated_at(-60.0)
        reflector.amplifier.set_gain_db(60.0)
        assert reflector.is_saturated_at(-30.0)


class TestThroughGain:
    def test_composition(self, reflector):
        ap, hs = Vec2(0.3, 0.3), Vec2(2.5, 2.5)
        reflector.point_at(ap, hs)
        reflector.amplifier.set_gain_db(30.0)
        from repro.geometry.vectors import bearing_deg

        from_az = bearing_deg(reflector.position, ap)
        to_az = bearing_deg(reflector.position, hs)
        through = reflector.through_gain_db_batch(from_az, to_az)
        expected = (
            reflector.rx_array.gain_dbi(from_az)
            + reflector.effective_gain_db()
            + reflector.tx_array.gain_dbi(to_az)
        )
        assert through == pytest.approx(expected)

    def test_through_gain_peaks_when_aligned(self, reflector):
        ap, hs = Vec2(0.3, 0.3), Vec2(2.5, 2.5)
        from repro.geometry.vectors import bearing_deg

        from_az = bearing_deg(reflector.position, ap)
        to_az = bearing_deg(reflector.position, hs)
        reflector.amplifier.set_gain_db(30.0)
        reflector.point_at(ap, hs)
        aligned = reflector.through_gain_db_batch(from_az, to_az)
        reflector.set_beams(from_az + 25.0, to_az - 25.0)
        misaligned = reflector.through_gain_db_batch(from_az, to_az)
        assert aligned > misaligned + 10.0

    def test_repr(self, reflector):
        assert "movr" in repr(reflector)

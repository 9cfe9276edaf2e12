"""Unit tests for the backscatter angle-search protocol (section 4.1)."""

import math

import numpy as np
import pytest

from repro.core.angle_search import (
    OOK_SIDEBAND_FRACTION,
    AngleSearchResult,
    BackscatterAngleSearch,
    ReflectionAngleSearch,
)
from repro.core.reflector import MoVRReflector
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.radios import DEFAULT_RADIO_CONFIG, HEADSET_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel


@pytest.fixture(scope="module")
def scene():
    room = standard_office(furnished=False)
    tracer = RayTracer(room)
    channel = MmWaveChannel()
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, config=DEFAULT_RADIO_CONFIG)
    return room, tracer, channel, ap


def make_search(scene, signal_level=False, rng=0, boresight_offset=15.0):
    room, tracer, channel, ap = scene
    position = Vec2(4.0, 4.2)
    toward_ap = bearing_deg(position, ap.position)
    reflector = MoVRReflector(position, boresight_deg=toward_ap + boresight_offset)
    return BackscatterAngleSearch(
        ap, reflector, tracer, channel, signal_level=signal_level, rng=rng
    )


class TestOokFraction:
    def test_value(self):
        assert OOK_SIDEBAND_FRACTION == pytest.approx(1.0 / math.pi**2)


class TestRoundTripPower:
    """The noise-free sideband amplitude, 20*log10 of which is the
    echo power plus the OOK sideband fraction."""

    @staticmethod
    def echo_dbm(search, ap_steer, refl_proto):
        amplitude = search.sideband_amplitude(ap_steer, refl_proto)
        return 20.0 * np.log10(amplitude) - 10.0 * math.log10(OOK_SIDEBAND_FRACTION)

    def test_peaks_at_true_angles(self, scene):
        search = make_search(scene)
        truth_refl = search.reflector.azimuth_to_prototype(
            search._bearing_refl_to_ap
        )
        truth_ap = search._bearing_ap_to_refl
        peak = self.echo_dbm(search, truth_ap, truth_refl)
        for d_ap, d_refl in ((10.0, 0.0), (0.0, 10.0), (-15.0, 20.0)):
            off = self.echo_dbm(search, truth_ap + d_ap, truth_refl + d_refl)
            assert peak > off

    def test_echo_is_weak_but_measurable(self, scene):
        search = make_search(scene)
        truth_refl = search.reflector.azimuth_to_prototype(
            search._bearing_refl_to_ap
        )
        echo = self.echo_dbm(search, search._bearing_ap_to_refl, truth_refl)
        # Far below the AP's own TX leakage (tx_power - 30 dB)...
        assert echo < search.ap.config.tx_power_dbm - 30.0
        # ...but above the sideband filter's noise floor.
        assert echo + 10.0 * math.log10(OOK_SIDEBAND_FRACTION) > (
            search._noise_in_band_dbm() + 10.0
        )

    def test_amplitude_is_a_broadcast_product(self, scene):
        search = make_search(scene)
        ap_angles = np.array([20.0, 45.0, 70.0])
        protos = np.array([60.0, 90.0, 120.0, 135.0])
        grid = search.sideband_amplitude(ap_angles[:, None], protos[None, :])
        assert grid.shape == (3, 4)
        for i, ap_deg in enumerate(ap_angles):
            for j, proto in enumerate(protos):
                assert grid[i, j] == pytest.approx(
                    search.sideband_amplitude(ap_deg, proto), rel=1e-12
                )


class TestEstimation:
    def test_reference_estimate_accurate(self, scene):
        search = make_search(scene, rng=1)
        result = search.estimate_incidence_angle(
            reflector_step_deg=2.0, ap_step_deg=3.0
        )
        assert result.reflector_error_deg <= 2.0

    def test_full_resolution_estimate_accurate(self, scene):
        search = make_search(scene, rng=2)
        result = search.estimate_incidence_angle()
        assert result.reflector_error_deg <= 1.0
        assert result.num_probes > 10_000

    def test_signal_level_estimate_accurate(self, scene):
        search = make_search(scene, signal_level=True, rng=3)
        result = search.estimate_incidence_angle(
            reflector_step_deg=4.0, ap_step_deg=6.0
        )
        assert result.reflector_error_deg <= 4.0

    def test_signal_level_and_analytic_agree(self, scene):
        """The DSP probe and the analytic noise model find the same
        alignment through the same sweep."""
        dsp = make_search(scene, signal_level=True, rng=4).estimate_incidence_angle(
            reflector_step_deg=4.0, ap_step_deg=6.0
        )
        analytic = make_search(scene, rng=5).estimate_incidence_angle(
            reflector_step_deg=4.0, ap_step_deg=6.0
        )
        assert abs(dsp.reflector_angle_deg - analytic.reflector_angle_deg) <= 4.0
        assert dsp.num_probes == analytic.num_probes

    def test_ap_angle_also_estimated(self, scene):
        search = make_search(scene, rng=6)
        result = search.estimate_incidence_angle()
        assert result.ap_error_deg <= 2.0

    def test_leakage_rejected_in_signal_level_probe(self, scene):
        """The AP's own leakage is 60+ dB above the echo, yet the
        sideband measurement still resolves the echo: the OOK shift is
        doing its job."""
        search = make_search(scene, signal_level=True, rng=7)
        truth_refl = search.reflector.azimuth_to_prototype(
            search._bearing_refl_to_ap
        )
        aligned = search.measure_sideband_dbm(
            search._bearing_ap_to_refl, truth_refl
        )
        misaligned = search.measure_sideband_dbm(
            search._bearing_ap_to_refl + 20.0, truth_refl + 30.0
        )
        assert aligned > misaligned + 10.0


class TestReflectionAngleSearch:
    def test_outgoing_beam_estimated(self, scene):
        room, tracer, channel, ap = scene
        position = Vec2(4.0, 4.2)
        toward_ap = bearing_deg(position, ap.position)
        reflector = MoVRReflector(position, boresight_deg=toward_ap)
        headset = Radio(
            Vec2(2.0, 1.5), boresight_deg=0.0, config=HEADSET_RADIO_CONFIG
        )
        search = ReflectionAngleSearch(
            ap, reflector, headset, tracer, channel, rng=8
        )
        result = search.estimate_reflection_angle(
            reflector_step_deg=1.0, headset_step_deg=4.0
        )
        assert result.reflector_error_deg <= 2.0

    def test_headset_error_wraps_at_180_degrees(self, scene):
        """A headset facing ~180 degrees: the estimate 185 and the
        truth -173.66 are 1.34 degrees apart, not 358.66."""
        room, tracer, channel, ap = scene
        position = Vec2(0.3, 2.3)
        headset = Radio(
            Vec2(3.0, 2.6), boresight_deg=175.0, config=HEADSET_RADIO_CONFIG
        )
        reflector = MoVRReflector(
            position, boresight_deg=bearing_deg(position, headset.position)
        )
        search = ReflectionAngleSearch(
            ap, reflector, headset, tracer, channel, rng=8
        )
        result = search.estimate_reflection_angle()
        assert result.ground_truth_ap_deg == pytest.approx(-173.66, abs=0.01)
        assert result.ap_angle_deg > 180.0
        assert result.ap_error_deg <= 2.0
        assert result.reflector_error_deg <= 2.0


class TestErrorWrap:
    def test_errors_use_the_wrapped_difference(self):
        result = AngleSearchResult(
            reflector_angle_deg=179.0,
            ap_angle_deg=-179.5,
            peak_sideband_dbm=0.0,
            num_probes=1,
            ground_truth_reflector_deg=-179.0,
            ground_truth_ap_deg=179.5,
        )
        assert result.reflector_error_deg == pytest.approx(2.0)
        assert result.ap_error_deg == pytest.approx(1.0)

    def test_no_truth_no_error(self):
        result = AngleSearchResult(90.0, 45.0, 0.0, num_probes=1)
        assert result.reflector_error_deg is None
        assert result.ap_error_deg is None


class TestProbesLeaveBeamsAlone:
    """Probing never re-steers the reflector or re-commands its gain:
    an output cannot depend on which probe ran last."""

    def test_probes_leave_the_gain_alone(self, scene):
        room, tracer, channel, ap = scene
        search = make_search(scene, rng=13)
        search.reflector.amplifier.set_gain_db(50.0)
        search.measure_sideband_dbm(45.0, 90.0)
        assert search.reflector.amplifier.gain_db == 50.0
        headset = Radio(
            Vec2(2.0, 1.5), boresight_deg=0.0, config=HEADSET_RADIO_CONFIG
        )
        reflection = ReflectionAngleSearch(
            ap, search.reflector, headset, tracer, channel, rng=14
        )
        reflection.sideband_at_headset_dbm(
            np.array([50.0, 90.0, 130.0])[:, None], np.array([0.0, 20.0])[None, :]
        )
        assert search.reflector.amplifier.gain_db == 50.0

    @pytest.mark.parametrize("signal_level", [False, True])
    def test_backscatter_probe(self, scene, signal_level):
        search = make_search(scene, signal_level=signal_level, rng=9)
        before = search.reflector.beams
        search.measure_sideband_dbm(45.0, 60.0)
        assert search.reflector.beams == before
        search.measure_sideband_dbm(np.array([30.0, 60.0]), 100.0)
        assert search.reflector.beams == before

    def test_backscatter_sweep(self, scene):
        search = make_search(scene, rng=10)
        before = search.reflector.beams
        search.estimate_incidence_angle(reflector_step_deg=4.0, ap_step_deg=4.0)
        assert search.reflector.beams == before

    def test_reflection_probe(self, scene):
        room, tracer, channel, ap = scene
        position = Vec2(4.0, 4.2)
        reflector = MoVRReflector(
            position, boresight_deg=bearing_deg(position, ap.position)
        )
        headset = Radio(
            Vec2(2.0, 1.5), boresight_deg=0.0, config=HEADSET_RADIO_CONFIG
        )
        search = ReflectionAngleSearch(
            ap, reflector, headset, tracer, channel, rng=11
        )
        before = reflector.beams
        search.sideband_at_headset_dbm(130.0, 20.0)
        assert reflector.beams == before
        search.sideband_at_headset_dbm(np.array([50.0, 130.0]), 20.0)
        search.estimate_reflection_angle(reflector_step_deg=4.0, headset_step_deg=8.0)
        assert reflector.beams == before


class TestSignalLevelProbeOrder:
    def test_grid_probes_match_a_nested_loop(self, scene):
        """The DSP probe synthesizes one capture per grid entry in C
        order, so a grid call consumes the noise stream exactly as the
        sequential (AP outer, reflector inner) protocol does."""
        ap_angles = np.array([40.0, 50.0])
        protos = np.array([80.0, 95.0, 110.0])
        grid = make_search(scene, signal_level=True, rng=12).measure_sideband_dbm(
            ap_angles[:, None], protos[None, :]
        )
        search = make_search(scene, signal_level=True, rng=12)
        loop = [
            [float(search.measure_sideband_dbm(a, p)) for p in protos]
            for a in ap_angles
        ]
        assert grid.shape == (2, 3)
        np.testing.assert_allclose(grid, loop, rtol=0.0, atol=1e-9)

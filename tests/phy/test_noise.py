"""Unit tests for noise figures and relay SNR arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.phy.noise import ReceiverNoise, relay_path_snr_db


class TestReceiverNoise:
    def test_noise_floor_kTB_plus_nf(self):
        rx = ReceiverNoise(bandwidth_hz=2.16e9, noise_figure_db=6.0)
        assert rx.noise_floor_dbm == pytest.approx(-74.6, abs=0.3)

    def test_snr(self):
        rx = ReceiverNoise(bandwidth_hz=2.16e9, noise_figure_db=6.0)
        assert rx.snr_db(-50.0) == pytest.approx(rx.noise_floor_dbm * -1 - 50.0)

    def test_default_instance(self):
        assert ReceiverNoise().noise_figure_db == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReceiverNoise(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            ReceiverNoise(noise_figure_db=-1.0)


class TestRelaySnr:
    def test_equal_hops_lose_3db(self):
        assert relay_path_snr_db(30.0, 30.0) == pytest.approx(26.99, abs=0.01)

    def test_weak_hop_dominates(self):
        assert relay_path_snr_db(40.0, 10.0) == pytest.approx(10.0, abs=0.1)

    def test_symmetric(self):
        assert relay_path_snr_db(12.0, 31.0) == relay_path_snr_db(31.0, 12.0)

    def test_dark_hop_is_dark(self):
        assert relay_path_snr_db(-math.inf, 30.0) == -math.inf

    @given(
        st.floats(min_value=-20.0, max_value=60.0),
        st.floats(min_value=-20.0, max_value=60.0),
    )
    def test_never_exceeds_weakest_hop(self, s1, s2):
        combined = relay_path_snr_db(s1, s2)
        assert combined <= min(s1, s2) + 1e-9
        assert combined >= min(s1, s2) - 3.02

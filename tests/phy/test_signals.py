"""Unit tests for the complex-baseband signal toolkit."""

import math

import numpy as np
import pytest

from repro.phy.signals import (
    ToneProbe,
    add_awgn,
    band_power,
    ook_modulate,
    signal_power,
    tone,
)


class TestTone:
    def test_unit_power(self):
        t = tone(1000.0, 1e6, 4096)
        assert signal_power(t) == pytest.approx(1.0)

    def test_frequency_recovered_by_fft(self):
        # Use an on-grid frequency (100 FFT bins) so the line is sharp.
        f = 100.0 * 1e6 / 4096
        t = tone(f, 1e6, 4096)
        assert band_power(t, f, 1e6 / 4096, 1e6) == pytest.approx(1.0, abs=0.01)

    def test_negative_frequency(self):
        t = tone(-30_000.0, 1e6, 2048)
        bin_hz = 1e6 / 2048
        assert band_power(t, -30_000.0, 10 * bin_hz, 1e6) > 0.9
        assert band_power(t, 30_000.0, 10 * bin_hz, 1e6) < 1e-3

    def test_nyquist_enforced(self):
        with pytest.raises(ValueError):
            tone(6e5, 1e6, 100)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            tone(100.0, 1e6, 0)
        with pytest.raises(ValueError):
            signal_power(np.array([]))


class TestPower:
    def test_amplitude_scaling(self):
        t = tone(1000.0, 1e6, 1024, amplitude=2.0)
        assert signal_power(t) == pytest.approx(4.0)


class TestAwgn:
    def test_noise_power_accurate(self):
        clean = np.zeros(200_000, dtype=complex)
        noisy = add_awgn(clean, noise_power=0.25, rng=0)
        assert signal_power(noisy) == pytest.approx(0.25, rel=0.02)

    def test_zero_noise_is_copy(self):
        t = tone(1000.0, 1e6, 128)
        out = add_awgn(t, 0.0)
        np.testing.assert_array_equal(out, t)
        assert out is not t

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            add_awgn(np.zeros(4, dtype=complex), -1.0)


class TestOokModulate:
    def test_duty_cycle_power(self):
        t = tone(0.0, 1e6, 100_000, amplitude=1.0)
        gated = ook_modulate(t, switch_rate_hz=10_000.0, sample_rate_hz=1e6)
        assert signal_power(gated) == pytest.approx(0.5, abs=0.01)

    def test_sidebands_appear_at_f1_plus_minus_f2(self):
        fs, f1, f2 = 1e6, 50_000.0, 100_000.0
        t = tone(f1, fs, 65536)
        gated = ook_modulate(t, f2, fs)
        upper = band_power(gated, f1 + f2, 2e3, fs)
        lower = band_power(gated, f1 - f2, 2e3, fs)
        carrier = band_power(gated, f1, 2e3, fs)
        # Carrier retains (1/2)^2 power; each first sideband (1/pi)^2.
        assert carrier == pytest.approx(0.25, abs=0.02)
        assert upper == pytest.approx(1.0 / math.pi**2, abs=0.02)
        assert lower == pytest.approx(1.0 / math.pi**2, abs=0.02)

    def test_no_power_leaks_into_empty_band(self):
        fs, f1, f2 = 1e6, 50_000.0, 100_000.0
        gated = ook_modulate(tone(f1, fs, 65536), f2, fs)
        # Halfway between spectral lines: nothing.
        assert band_power(gated, f1 + f2 / 2.0, 2e3, fs) < 1e-4

    def test_validation(self):
        t = tone(0.0, 1e6, 128)
        with pytest.raises(ValueError):
            ook_modulate(t, 0.0, 1e6)
        with pytest.raises(ValueError):
            ook_modulate(t, 1e4, 1e6, duty_cycle=1.0)
        with pytest.raises(ValueError):
            ook_modulate(t, 6e5, 1e6)


class TestBandPower:
    def test_captures_tone_in_band(self):
        t = tone(10_000.0, 1e6, 65536)
        assert band_power(t, 10_000.0, 1e3, 1e6) == pytest.approx(1.0, abs=0.01)

    def test_excludes_out_of_band(self):
        t = tone(10_000.0, 1e6, 65536)
        assert band_power(t, 200_000.0, 1e3, 1e6) < 1e-6

    def test_total_power_parseval(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        total = band_power(x, 0.0, 2e6, 1e6)  # the whole spectrum
        assert total == pytest.approx(signal_power(x), rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            band_power(np.array([]), 0.0, 1e3, 1e6)


class TestToneProbe:
    def test_defaults_valid(self):
        probe = ToneProbe()
        assert probe.sideband_hz == pytest.approx(150_000.0)

    def test_nyquist_guard(self):
        with pytest.raises(ValueError):
            ToneProbe(tone_hz=4e5, switch_hz=2e5)

    def test_separation_guard(self):
        with pytest.raises(ValueError):
            ToneProbe(switch_hz=5e3, measurement_bw_hz=2e3)

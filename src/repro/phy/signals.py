"""Complex-baseband signal processing primitives.

These are the sample-level tools the backscatter angle-search protocol
(section 4.1 of the paper) is built from: tone generation, on/off (OOK)
modulation by the reflector's amplifier, AWGN, and FFT-based power
measurement in a narrow band — how the AP separates the reflected tone
at ``f1 + f2`` from its own leakage at ``f1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import require_positive


def tone(
    frequency_hz: float,
    sample_rate_hz: float,
    num_samples: int,
    amplitude: float = 1.0,
    phase_rad: float = 0.0,
) -> np.ndarray:
    """A complex exponential at ``frequency_hz`` (baseband).

    ``frequency_hz`` may be negative; it must satisfy Nyquist.
    """
    require_positive(sample_rate_hz, "sample_rate_hz")
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if abs(frequency_hz) >= sample_rate_hz / 2.0:
        raise ValueError(
            f"tone at {frequency_hz} Hz violates Nyquist for fs={sample_rate_hz} Hz"
        )
    n = np.arange(num_samples)
    return amplitude * np.exp(1j * (2.0 * np.pi * frequency_hz * n / sample_rate_hz + phase_rad))


def signal_power(samples: np.ndarray) -> float:
    """Mean power of a complex sample vector (linear units)."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("cannot measure power of an empty signal")
    return float(np.mean(np.abs(samples) ** 2))


def add_awgn(
    samples: np.ndarray,
    noise_power: float,
    rng: RngLike = None,
) -> np.ndarray:
    """Add circular complex Gaussian noise of the given linear power."""
    if noise_power < 0.0:
        raise ValueError("noise_power must be non-negative")
    if noise_power == 0.0:
        return np.array(samples, copy=True)
    generator = make_rng(rng)
    sigma = math.sqrt(noise_power / 2.0)
    noise = generator.normal(0.0, sigma, samples.shape) + 1j * generator.normal(
        0.0, sigma, samples.shape
    )
    return samples + noise


def ook_modulate(
    samples: np.ndarray,
    switch_rate_hz: float,
    sample_rate_hz: float,
    duty_cycle: float = 0.5,
) -> np.ndarray:
    """On/off-key a signal with a square wave at ``switch_rate_hz``.

    This is what the MoVR reflector does during angle search: its
    Arduino toggles the amplifier at ``f2``, shifting reflected energy
    to ``f1 +/- f2`` sidebands so the AP can separate the reflection
    from its own leakage.
    """
    require_positive(switch_rate_hz, "switch_rate_hz")
    require_positive(sample_rate_hz, "sample_rate_hz")
    if not 0.0 < duty_cycle < 1.0:
        raise ValueError(f"duty_cycle must be in (0, 1), got {duty_cycle}")
    if switch_rate_hz >= sample_rate_hz / 2.0:
        raise ValueError("switch rate violates Nyquist")
    n = np.arange(len(samples))
    phase = (switch_rate_hz * n / sample_rate_hz) % 1.0
    gate = (phase < duty_cycle).astype(float)
    return samples * gate


def band_power(
    samples: np.ndarray,
    center_hz: float,
    width_hz: float,
    sample_rate_hz: float,
) -> float:
    """Total power in a frequency band via the periodogram.

    Used by the AP to measure reflected power at ``f1 + f2`` while its
    own leakage sits at ``f1``.  Frequencies are baseband (may be
    negative).
    """
    require_positive(width_hz, "width_hz")
    require_positive(sample_rate_hz, "sample_rate_hz")
    samples = np.asarray(samples)
    n = samples.size
    if n == 0:
        raise ValueError("empty signal")
    spectrum = np.fft.fft(samples) / n
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate_hz)
    mask = np.abs(freqs - center_hz) <= width_hz / 2.0
    return float(np.sum(np.abs(spectrum[mask]) ** 2))


@dataclass(frozen=True)
class ToneProbe:
    """Parameters of the angle-search probe waveform.

    The AP transmits a tone at baseband offset ``tone_hz``; the
    reflector modulates at ``switch_hz``.  ``measurement_bw_hz`` is the
    filter bandwidth around the sideband.  Defaults keep the sideband
    well separated from the leakage line with a short capture.
    """

    sample_rate_hz: float = 1.0e6
    tone_hz: float = 50.0e3
    switch_hz: float = 100.0e3
    num_samples: int = 4096
    measurement_bw_hz: float = 2.0e3

    def __post_init__(self) -> None:
        require_positive(self.sample_rate_hz, "sample_rate_hz")
        require_positive(self.switch_hz, "switch_hz")
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")
        require_positive(self.measurement_bw_hz, "measurement_bw_hz")
        sideband = abs(self.tone_hz + self.switch_hz)
        if sideband >= self.sample_rate_hz / 2.0:
            raise ValueError("sideband violates Nyquist")
        if abs(self.switch_hz) < 4.0 * self.measurement_bw_hz:
            raise ValueError(
                "switch frequency too close to the leakage line for the "
                "measurement bandwidth"
            )

    @property
    def sideband_hz(self) -> float:
        """Center of the upper OOK sideband the AP measures."""
        return self.tone_hz + self.switch_hz

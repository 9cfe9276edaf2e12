"""OFDM modulation and EVM-based SNR measurement.

In the paper's SNR experiment (section 5.2) "the AP transmits packets
consisting of OFDM symbols and the headset's receiver receives these
packets and computes the SNR".  This module reproduces that
measurement chain at complex baseband: QPSK-loaded OFDM symbols with a
cyclic prefix, a flat (single-tap) channel — valid because mmWave
beamformed links are dominated by one path — AWGN, and an
error-vector-magnitude SNR estimator at the receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import require_int

#: QPSK constellation (Gray-coded), unit average power.
_QPSK = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / math.sqrt(2.0)


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM numerology.

    Defaults follow the 802.11ad OFDM PHY's proportions scaled to a
    compact simulation size: 64-point FFT with 52 active subcarriers
    and a 25% cyclic prefix.
    """

    fft_size: int = 64
    num_active_subcarriers: int = 52
    cyclic_prefix: int = 16
    symbols_per_packet: int = 20

    def __post_init__(self) -> None:
        require_int(self.fft_size, "fft_size", minimum=8)
        require_int(self.num_active_subcarriers, "num_active_subcarriers", minimum=1)
        require_int(self.cyclic_prefix, "cyclic_prefix", minimum=0)
        require_int(self.symbols_per_packet, "symbols_per_packet", minimum=1)
        if self.num_active_subcarriers >= self.fft_size:
            raise ValueError("active subcarriers must be fewer than the FFT size")
        if self.cyclic_prefix >= self.fft_size:
            raise ValueError("cyclic prefix must be shorter than the FFT size")

    @property
    def active_bins(self) -> np.ndarray:
        """FFT bin indices carrying data (symmetric around DC, DC unused)."""
        half = self.num_active_subcarriers // 2
        positive = np.arange(1, half + 1)
        negative = np.arange(self.fft_size - (self.num_active_subcarriers - half), self.fft_size)
        return np.concatenate([positive, negative])

    @property
    def samples_per_symbol(self) -> int:
        return self.fft_size + self.cyclic_prefix


class OfdmModem:
    """Modulator/demodulator pair sharing one configuration."""

    def __init__(self, config: OfdmConfig = OfdmConfig(), seed: RngLike = None) -> None:
        self.config = config
        self._rng = make_rng(seed)

    # -- transmit -------------------------------------------------------

    def random_payload(self) -> np.ndarray:
        """Random QPSK symbols for one packet: shape (symbols, active)."""
        cfg = self.config
        idx = self._rng.integers(0, 4, size=(cfg.symbols_per_packet, cfg.num_active_subcarriers))
        return _QPSK[idx]

    def modulate(self, payload: np.ndarray) -> np.ndarray:
        """Frequency-domain payload -> time-domain packet with CP.

        Output power is normalized so the mean sample power is 1.0,
        making SNR bookkeeping exact.
        """
        cfg = self.config
        if payload.shape != (cfg.symbols_per_packet, cfg.num_active_subcarriers):
            raise ValueError(
                f"payload shape {payload.shape} does not match config "
                f"({cfg.symbols_per_packet}, {cfg.num_active_subcarriers})"
            )
        bins = cfg.active_bins
        time_blocks = []
        for symbol in payload:
            grid = np.zeros(cfg.fft_size, dtype=complex)
            grid[bins] = symbol
            block = np.fft.ifft(grid) * math.sqrt(cfg.fft_size)
            with_cp = np.concatenate([block[-cfg.cyclic_prefix:], block]) if cfg.cyclic_prefix else block
            time_blocks.append(with_cp)
        samples = np.concatenate(time_blocks)
        # Normalize mean power to exactly 1.
        power = float(np.mean(np.abs(samples) ** 2))
        return samples / math.sqrt(power)

    # -- receive --------------------------------------------------------

    def demodulate(self, samples: np.ndarray) -> np.ndarray:
        """Time-domain packet -> frequency-domain grid (symbols, active)."""
        cfg = self.config
        expected = cfg.symbols_per_packet * cfg.samples_per_symbol
        if samples.size != expected:
            raise ValueError(f"expected {expected} samples, got {samples.size}")
        out = np.empty((cfg.symbols_per_packet, cfg.num_active_subcarriers), dtype=complex)
        bins = cfg.active_bins
        for i in range(cfg.symbols_per_packet):
            start = i * cfg.samples_per_symbol + cfg.cyclic_prefix
            block = samples[start : start + cfg.fft_size]
            grid = np.fft.fft(block) / math.sqrt(cfg.fft_size)
            out[i] = grid[bins]
        return out

    def estimate_snr_db(
        self,
        received_grid: np.ndarray,
        reference_payload: np.ndarray,
    ) -> float:
        """Pilot-aided EVM SNR estimate.

        A one-tap least-squares channel estimate is computed from the
        known payload, then SNR = signal power / residual error power.
        This is exactly how a data-aided receiver measures link SNR.
        """
        if received_grid.shape != reference_payload.shape:
            raise ValueError("received grid and reference payload shapes differ")
        ref = reference_payload.ravel()
        rx = received_grid.ravel()
        denom = np.vdot(ref, ref)
        if abs(denom) == 0.0:
            raise ValueError("reference payload has zero power")
        h = np.vdot(ref, rx) / denom
        error = rx - h * ref
        signal_power = float(np.abs(h) ** 2 * np.mean(np.abs(ref) ** 2))
        error_power = float(np.mean(np.abs(error) ** 2))
        if error_power <= 0.0:
            return float("inf")
        return 10.0 * math.log10(signal_power / error_power)


def measure_link_snr_db(
    channel_gain_db: float,
    tx_power_dbm: float,
    noise_floor_dbm: float,
    modem: Optional[OfdmModem] = None,
    rng: RngLike = None,
) -> float:
    """Measure SNR over a flat channel with an actual OFDM packet.

    Drives the full modulate -> scale -> AWGN -> demodulate -> EVM chain
    so the returned SNR includes estimation noise, as a real receiver's
    would.  With very low true SNR the estimate saturates near 0 dB of
    measurement floor, matching real EVM estimators.
    """
    modem = modem if modem is not None else OfdmModem(seed=rng)
    generator = make_rng(rng)
    payload = modem.random_payload()
    tx = modem.modulate(payload)
    rx_power_dbm = tx_power_dbm + channel_gain_db
    amplitude = 10.0 ** ((rx_power_dbm - noise_floor_dbm) / 20.0)
    # Work in noise-normalized units: noise power 1, signal amplitude
    # set by the SNR.
    rx = tx * amplitude
    sigma = math.sqrt(0.5)
    noise = generator.normal(0.0, sigma, rx.shape) + 1j * generator.normal(0.0, sigma, rx.shape)
    grid = modem.demodulate(rx + noise)
    return modem.estimate_snr_db(grid, payload)

"""mmWave physical layer: antennas, channel, blockage, amplifiers, OFDM."""

from repro.phy.amplifier import (
    MOVR_AMPLIFIER,
    AmplifierSpec,
    VariableGainAmplifier,
    closed_loop_gain_db,
    loop_is_stable,
)
from repro.phy.antenna import (
    MOVR_ARRAY,
    PhasedArray,
    PhasedArrayConfig,
)
from repro.phy.ber import (
    best_goodput_mbps,
    coded_ber,
    frame_error_rate,
    goodput_mbps,
    q_function,
    uncoded_ber,
)
from repro.phy.blockage import BlockageModel
from repro.phy.channel import (
    MmWaveChannel,
    atmospheric_loss_db,
    free_space_path_loss_db,
)
from repro.phy.noise import (
    ReceiverNoise,
    relay_path_snr_db,
)
from repro.phy.ofdm import (
    OfdmConfig,
    OfdmModem,
    measure_link_snr_db,
)
from repro.phy.signals import (
    ToneProbe,
    add_awgn,
    band_power,
    ook_modulate,
    signal_power,
    tone,
)

__all__ = [
    "MOVR_AMPLIFIER",
    "AmplifierSpec",
    "VariableGainAmplifier",
    "closed_loop_gain_db",
    "loop_is_stable",
    "MOVR_ARRAY",
    "PhasedArray",
    "PhasedArrayConfig",
    "best_goodput_mbps",
    "coded_ber",
    "frame_error_rate",
    "goodput_mbps",
    "q_function",
    "uncoded_ber",
    "BlockageModel",
    "MmWaveChannel",
    "atmospheric_loss_db",
    "free_space_path_loss_db",
    "ReceiverNoise",
    "relay_path_snr_db",
    "OfdmConfig",
    "OfdmModem",
    "measure_link_snr_db",
    "ToneProbe",
    "add_awgn",
    "band_power",
    "ook_modulate",
    "signal_power",
    "tone",
]

"""VR traffic model: frames, rates, and latency requirements.

"High-quality VR systems need to stream multiple Gbps of data" and
"the headset updates the display every 10 ms" (the paper, sections 1 and 6).
The strict motion-to-photon budget precludes heavy compression, so the
stream is modeled as raw (or lightly packed) frames emitted at the
display refresh rate, each of which must arrive within a deadline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require_int, require_positive


@dataclass(frozen=True)
class DisplaySpec:
    """A headset display panel configuration."""

    width_px: int
    height_px: int
    refresh_hz: float
    bits_per_pixel: float = 24.0

    def __post_init__(self) -> None:
        require_int(self.width_px, "width_px", minimum=1)
        require_int(self.height_px, "height_px", minimum=1)
        require_positive(self.refresh_hz, "refresh_hz")
        require_positive(self.bits_per_pixel, "bits_per_pixel")

    @property
    def pixels_per_frame(self) -> int:
        return self.width_px * self.height_px

    @property
    def bits_per_frame(self) -> float:
        return self.pixels_per_frame * self.bits_per_pixel

    @property
    def raw_rate_mbps(self) -> float:
        """Uncompressed stream rate in Mbps."""
        return self.bits_per_frame * self.refresh_hz / 1e6


#: HTC Vive (2016): dual 1080x1200 panels at 90 Hz.
HTC_VIVE_DISPLAY = DisplaySpec(width_px=2160, height_px=1200, refresh_hz=90.0)


@dataclass(frozen=True)
class VrTrafficModel:
    """The headset's traffic contract with the link.

    ``packing_efficiency`` covers light, latency-free packing (chroma
    subsampling / display stream compression at ~1.4:1), which is how a
    5.6 Gbps raw Vive stream fits the paper's ~4 Gbps requirement while
    respecting the no-codec latency constraint.
    """

    display: DisplaySpec = HTC_VIVE_DISPLAY
    frame_deadline_s: float = 0.010
    packing_efficiency: float = 1.4

    def __post_init__(self) -> None:
        require_positive(self.frame_deadline_s, "frame_deadline_s")
        require_positive(self.packing_efficiency, "packing_efficiency")

    @property
    def required_rate_mbps(self) -> float:
        """Sustained link rate needed to carry every frame."""
        return self.display.raw_rate_mbps / self.packing_efficiency

    @property
    def frame_interval_s(self) -> float:
        return 1.0 / self.display.refresh_hz

    @property
    def frame_bits(self) -> float:
        return self.display.bits_per_frame / self.packing_efficiency

    def frame_airtime_s(self, link_rate_mbps: float) -> float:
        """Time to push one frame at a given link rate.

        Returns ``inf`` when the link is down.
        """
        if link_rate_mbps <= 0.0:
            return float("inf")
        return self.frame_bits / (link_rate_mbps * 1e6)


#: The default VR requirement used across the experiments (~4 Gbps),
#: matching the "required data-rate" line in Fig. 3 of the paper.
DEFAULT_TRAFFIC = VrTrafficModel()

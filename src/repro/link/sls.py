"""802.11ad sector-level sweep (SLS) cost.

The standard's own beam acquisition protocol is one-sided-at-a-time:
the initiator sweeps its sectors while the responder listens
quasi-omni, then they swap — O(N+M) probes instead of the O(N*M) joint
sweep.  The airtime comparison prices it against MoVR's searches.
"""

from __future__ import annotations

from repro.utils.validation import require_positive


def sls_probe_count(initiator_sectors: int, responder_sectors: int) -> int:
    """Frames an SLS exchange costs (both phases)."""
    require_positive(initiator_sectors, "initiator_sectors")
    require_positive(responder_sectors, "responder_sectors")
    return initiator_sectors + responder_sectors

"""Beam codebooks and beam-search algorithms.

The paper's Opt-NLOS baseline "tries every combination of beam angle
for both transmitter and receiver antennas, with 1 degree increments"
(section 3).  This module provides that exhaustive joint sweep, a cheaper
hierarchical (coarse-to-fine) search, and the cost model (number of
probes, search latency) used by the ablation benchmarks.  Every sweep
takes one broadcast metric, called once per angle grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.utils.validation import require_positive

#: Time to retune the analog phase shifters and take one power
#: measurement.  Phase shifters settle in sub-microseconds (the paper,
#: section 6); the measurement (preamble detection + RSSI) dominates at a
#: few microseconds per probe.
DEFAULT_PROBE_TIME_S = 5e-6


@dataclass(frozen=True)
class Codebook:
    """A discrete set of steering angles."""

    angles_deg: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.angles_deg:
            raise ValueError("codebook must contain at least one angle")

    def __len__(self) -> int:
        return len(self.angles_deg)

    def __iter__(self):
        return iter(self.angles_deg)

    @classmethod
    def uniform(cls, start_deg: float, stop_deg: float, step_deg: float) -> "Codebook":
        """Uniformly spaced angles in ``[start, stop]`` inclusive.

        >>> len(Codebook.uniform(40.0, 140.0, 1.0))
        101
        """
        require_positive(step_deg, "step_deg")
        if stop_deg < start_deg:
            raise ValueError("stop_deg must be >= start_deg")
        count = int(round((stop_deg - start_deg) / step_deg)) + 1
        # Element-wise start + i * step: the same floats as in Python.
        return cls(tuple((start_deg + np.arange(count) * step_deg).tolist()))


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a joint two-sided beam search."""

    best_tx_deg: float
    best_rx_deg: float
    best_metric: float
    num_probes: int
    metric_map: Optional[np.ndarray] = None

    def search_time_s(self, probe_time_s: float = DEFAULT_PROBE_TIME_S) -> float:
        """Wall-clock search latency under the probe cost model."""
        return self.num_probes * probe_time_s


#: Broadcast metric: called once with broadcastable (tx, rx) angle
#: grids, returns the metric for every pair.  NaN entries (e.g. an
#: unstable reflector probe) are unusable.
MetricFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def probe_grid(metric: Callable[..., np.ndarray], *angles) -> np.ndarray:
    """Call ``metric`` once on broadcast angle grids; the result has
    the grids' broadcast shape (one probe per entry)."""
    shape = np.broadcast(*angles).shape
    return np.broadcast_to(np.asarray(metric(*angles), dtype=float), shape)


def first_max(values: np.ndarray) -> Tuple[int, float]:
    """Flat index and value of the first maximum; NaN entries are
    unusable (``-inf``)."""
    flat = int(np.argmax(values))
    if np.isnan(values.flat[flat]):  # argmax stops at the first NaN
        values = np.where(np.isnan(values), -np.inf, values)
        flat = int(np.argmax(values))
    return flat, float(values.flat[flat])


def exhaustive_joint_sweep(
    tx_codebook: Codebook,
    rx_codebook: Codebook,
    metric: MetricFn,
    keep_map: bool = False,
) -> SweepResult:
    """Try every (tx, rx) angle pair; return the argmax of the metric.

    ``metric(tx_deg, rx_deg)`` is typically a measured SNR or, during
    MoVR's angle search, the reflected sideband power at the AP.  It is
    called once over the ``(T, 1)`` x ``(1, R)`` grid; the probe count
    (the *hardware* cost the search models) is ``T * R``.  Ties go to
    the first pair in (tx, rx) order; when every probe is unusable the
    result is ``(0, 0)`` at ``-inf``.
    """
    tx = np.asarray(tx_codebook.angles_deg, dtype=float)
    rx = np.asarray(rx_codebook.angles_deg, dtype=float)
    values = probe_grid(metric, tx[:, None], rx[None, :])
    flat, best_value = first_max(values)
    i, j = np.unravel_index(flat, values.shape)
    if best_value == -math.inf:
        best_tx, best_rx = 0.0, 0.0
    else:
        best_tx, best_rx = float(tx[i]), float(rx[j])
    return SweepResult(
        best_tx_deg=best_tx,
        best_rx_deg=best_rx,
        best_metric=best_value,
        num_probes=values.size,
        metric_map=values.copy() if keep_map else None,
    )


def hierarchical_joint_sweep(
    tx_range_deg: Tuple[float, float],
    rx_range_deg: Tuple[float, float],
    metric: MetricFn,
    coarse_step_deg: float = 10.0,
    fine_step_deg: Tuple[float, float] = (1.0, 1.0),
    refine_span_deg: float = 12.0,
) -> SweepResult:
    """Coarse-to-fine joint search: sweep a coarse grid, then refine
    around the winner with fine steps.

    Each side covers its own ``(start, stop)`` range; ``fine_step_deg``
    is the (tx, rx) step of the refinement, which spans
    ``refine_span_deg`` around the coarse winner, clipped to the range.
    The refined winner is kept when it is at least as good as the
    coarse one.  Cuts probe count roughly from ``(R/f)^2`` to
    ``(R/c)^2 + (s/f)^2`` at the risk of locking onto a coarse-grid
    sidelobe; the ablation benchmark quantifies that trade.
    """
    require_positive(coarse_step_deg, "coarse_step_deg")
    for step in fine_step_deg:
        require_positive(step, "fine_step_deg")
        if step > coarse_step_deg:
            raise ValueError("fine step must not exceed coarse step")
    stage1 = exhaustive_joint_sweep(
        Codebook.uniform(*tx_range_deg, coarse_step_deg),
        Codebook.uniform(*rx_range_deg, coarse_step_deg),
        metric,
    )
    if stage1.best_metric == -math.inf:
        # Nothing usable to refine around.
        return stage1
    half = refine_span_deg / 2.0

    def refine(best_deg: float, bounds: Tuple[float, float], step: float) -> Codebook:
        start, stop = bounds
        return Codebook.uniform(
            max(start, best_deg - half), min(stop, best_deg + half), step
        )

    stage2 = exhaustive_joint_sweep(
        refine(stage1.best_tx_deg, tx_range_deg, fine_step_deg[0]),
        refine(stage1.best_rx_deg, rx_range_deg, fine_step_deg[1]),
        metric,
    )
    winner = stage2 if stage2.best_metric >= stage1.best_metric else stage1
    return SweepResult(
        best_tx_deg=winner.best_tx_deg,
        best_rx_deg=winner.best_rx_deg,
        best_metric=winner.best_metric,
        num_probes=stage1.num_probes + stage2.num_probes,
    )


def single_sided_sweep(
    codebook: Codebook,
    metric: Callable[[np.ndarray], np.ndarray],
) -> Tuple[float, float, int]:
    """Sweep one beam with the other held fixed.

    Returns ``(best_angle, best_metric, num_probes)`` — the primitive
    used by pose-assisted tracking, which only needs to refine one
    side.  ``metric`` is called once over the whole codebook.  Ties go
    to the first angle; when every probe is unusable the result is the
    first angle at ``-inf``.
    """
    angles = np.asarray(codebook.angles_deg, dtype=float)
    best, value = first_max(probe_grid(metric, angles))
    return float(angles[best]), value, int(angles.size)

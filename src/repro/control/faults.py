"""Deterministic fault injection for the BLE control plane.

The i.i.d. loss model in :class:`repro.control.bluetooth.BleLink`
captures steady-state 2.4 GHz interference, but real control planes
fail in *bursts*: a microwave oven opens a multi-second loss window, a
body shadows the antenna and the link drops outright, or a reflector's
firmware wedges and stops applying commands while its radio keeps
ACKing.  :class:`FaultSchedule` models those as explicit time windows
so experiments can sweep fault intensity deterministically — the same
seed always produces the same outages, which is what makes recovery
latency measurable and testable.

Three fault kinds:

* ``BURST_LOSS`` — the per-event loss probability is raised to the
  window's ``loss_rate`` for its duration (interference burst);
* ``LINK_DOWN`` — no connection event gets through and reconnection
  attempts fail until the window closes (link-level outage);
* ``STUCK_REFLECTOR`` — the link is fine but the reflector does not
  *apply* commands received inside the window (wedged firmware; its
  radio still acknowledges).
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import (
    require_non_negative,
    require_positive,
    require_probability,
)


class FaultKind(enum.Enum):
    """What goes wrong during a fault window."""

    BURST_LOSS = "burst_loss"
    LINK_DOWN = "link_down"
    STUCK_REFLECTOR = "stuck_reflector"


@dataclass(frozen=True)
class FaultWindow:
    """One contiguous fault interval ``[start_s, end_s)``."""

    start_s: float
    end_s: float
    kind: FaultKind
    #: Per-event loss probability inside a ``BURST_LOSS`` window
    #: (ignored for the other kinds).
    loss_rate: float = 1.0

    def __post_init__(self) -> None:
        require_non_negative(self.start_s, "start_s")
        if self.end_s <= self.start_s:
            raise ValueError(
                f"fault window must have end_s > start_s, got "
                f"[{self.start_s}, {self.end_s})"
            )
        require_probability(self.loss_rate, "loss_rate")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def active_at(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.end_s


class FaultSchedule:
    """An immutable, time-sorted set of fault windows.

    Windows of different kinds may overlap (a stuck reflector during a
    loss burst); windows of the *same* kind are kept sorted so lookups
    are ``O(log n)`` via bisect on the start times.
    """

    def __init__(self, windows: Iterable[FaultWindow] = ()) -> None:
        self.windows: Tuple[FaultWindow, ...] = tuple(
            sorted(windows, key=lambda w: (w.start_s, w.end_s))
        )
        self._by_kind = {}
        for kind in FaultKind:
            ours = [w for w in self.windows if w.kind is kind]
            self._by_kind[kind] = (
                [w.start_s for w in ours],
                ours,
            )

    def __len__(self) -> int:
        return len(self.windows)

    def __bool__(self) -> bool:
        return bool(self.windows)

    def _active(self, kind: FaultKind, t_s: float) -> Optional[FaultWindow]:
        starts, ours = self._by_kind[kind]
        # Candidate: the last window starting at or before t_s.  Same-
        # kind windows may still overlap, so scan left while previous
        # windows could cover t_s.
        i = bisect.bisect_right(starts, t_s) - 1
        while i >= 0:
            window = ours[i]
            if window.active_at(t_s):
                return window
            # Earlier windows can only cover t_s if they overlap this
            # one; stop once starts are too far left to matter.
            if window.end_s <= t_s and i > 0 and ours[i - 1].end_s <= window.start_s:
                break
            i -= 1
        return None

    # -- queries the link and coordinator make ---------------------------

    def link_down_at(self, t_s: float) -> bool:
        """Is a ``LINK_DOWN`` outage active at ``t_s``?"""
        return self._active(FaultKind.LINK_DOWN, t_s) is not None

    def stuck_at(self, t_s: float) -> bool:
        """Is the reflector ignoring commands at ``t_s``?"""
        return self._active(FaultKind.STUCK_REFLECTOR, t_s) is not None

    def loss_rate_at(self, t_s: float, base_rate: float) -> float:
        """Effective per-event loss probability at ``t_s``.

        ``LINK_DOWN`` forces certain loss; an active ``BURST_LOSS``
        window raises (never lowers) the base rate.
        """
        if self.link_down_at(t_s):
            return 1.0
        burst = self._active(FaultKind.BURST_LOSS, t_s)
        if burst is not None:
            return max(base_rate, burst.loss_rate)
        return base_rate

    # -- constructors ----------------------------------------------------

    @classmethod
    def periodic(
        cls,
        kind: FaultKind,
        period_s: float,
        duration_s: float,
        count: int,
        start_s: float = 0.0,
        loss_rate: float = 1.0,
    ) -> "FaultSchedule":
        """``count`` identical windows, one per ``period_s``."""
        require_positive(period_s, "period_s")
        require_positive(duration_s, "duration_s")
        if duration_s >= period_s:
            raise ValueError("duration_s must be shorter than period_s")
        if count < 0:
            raise ValueError("count must be non-negative")
        windows = [
            FaultWindow(
                start_s=start_s + i * period_s,
                end_s=start_s + i * period_s + duration_s,
                kind=kind,
                loss_rate=loss_rate,
            )
            for i in range(count)
        ]
        return cls(windows)

    @classmethod
    def poisson(
        cls,
        rng: RngLike,
        horizon_s: float,
        rate_hz: float,
        mean_duration_s: float,
        kind: FaultKind = FaultKind.LINK_DOWN,
        loss_rate: float = 1.0,
    ) -> "FaultSchedule":
        """Poisson fault arrivals with exponential durations.

        Fully determined by ``rng`` — the seedable randomness the
        fault-sweep experiments rely on.  Windows are truncated at the
        horizon and arrivals inside a previous window are skipped, so
        same-kind windows never overlap.
        """
        require_positive(horizon_s, "horizon_s")
        require_positive(rate_hz, "rate_hz")
        require_positive(mean_duration_s, "mean_duration_s")
        generator = make_rng(rng)
        windows: List[FaultWindow] = []
        t = 0.0
        while True:
            t += float(generator.exponential(1.0 / rate_hz))
            if t >= horizon_s:
                break
            duration = float(generator.exponential(mean_duration_s))
            end = min(t + max(duration, 1e-6), horizon_s)
            if windows and t < windows[-1].end_s:
                continue
            if end <= t:
                continue
            windows.append(
                FaultWindow(start_s=t, end_s=end, kind=kind, loss_rate=loss_rate)
            )
        return cls(windows)

    @classmethod
    def merge(cls, *schedules: "FaultSchedule") -> "FaultSchedule":
        """Union of several schedules (e.g. bursts + outages)."""
        windows: List[FaultWindow] = []
        for schedule in schedules:
            windows.extend(schedule.windows)
        return cls(windows)


__all__ = ["FaultKind", "FaultWindow", "FaultSchedule"]

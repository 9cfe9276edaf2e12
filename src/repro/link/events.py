"""A small discrete-event simulation core.

Drives the end-to-end experiments: VR frames arriving every 11.1 ms,
pose updates at 90 Hz, blockage events from motion traces, and control
actions (beam re-search, handoff to a reflector) that take simulated
time.  Deliberately minimal — an event heap with deterministic
tie-breaking — because determinism matters more than generality for
reproducible experiments.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List

EventCallback = Callable[["Simulator"], None]


@dataclass(order=True)
class _ScheduledEvent:
    time_s: float
    sequence: int
    callback: EventCallback = field(compare=False)
    label: str = field(default="", compare=False)


class Simulator:
    """Deterministic discrete-event simulator.

    Events at equal timestamps run in scheduling order.  Callbacks
    receive the simulator and may schedule further events.
    """

    def __init__(self) -> None:
        self._queue: List[_ScheduledEvent] = []
        self._counter = itertools.count()
        self._now = 0.0
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(
        self,
        delay_s: float,
        callback: EventCallback,
        label: str = "",
    ) -> None:
        """Schedule ``callback`` to run ``delay_s`` seconds from now."""
        if delay_s < 0.0 or not math.isfinite(delay_s):
            raise ValueError(f"delay must be finite and non-negative, got {delay_s}")
        event = _ScheduledEvent(
            time_s=self._now + delay_s,
            sequence=next(self._counter),
            callback=callback,
            label=label,
        )
        heapq.heappush(self._queue, event)

    def schedule_periodic(
        self,
        period_s: float,
        callback: EventCallback,
        label: str = "",
        start_delay_s: float = 0.0,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``period_s``; returns a stop function."""
        if period_s <= 0.0:
            raise ValueError(f"period must be positive, got {period_s}")
        stopped = {"flag": False}

        def tick(sim: "Simulator") -> None:
            if stopped["flag"]:
                return
            callback(sim)
            if not stopped["flag"]:
                sim.schedule(period_s, tick, label)

        self.schedule(start_delay_s, tick, label)

        def stop() -> None:
            stopped["flag"] = True

        return stop

    def run_until(self, end_time_s: float) -> None:
        """Process events up to and including ``end_time_s``."""
        if end_time_s < self._now:
            raise ValueError("end time is in the past")
        while self._queue and self._queue[0].time_s <= end_time_s:
            event = heapq.heappop(self._queue)
            self._now = event.time_s
            event.callback(self)
            self.events_processed += 1
        self._now = end_time_s

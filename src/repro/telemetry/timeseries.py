"""Time-series sampling: bounded ring buffers over simulation time.

The existing instruments answer "how much / how long in total" — a
histogram of sweep times, a counter of handoffs.  What they cannot
answer is *when*: how long was the SNR below the HD threshold, did the
outage cluster at the start of the session or smear across it?  A
:class:`TimeSeries` records ``(t, value)`` samples against the
caller's clock (simulation seconds in the experiments) so QoE
questions become windowed computations over the session timeline (see
:mod:`repro.telemetry.slo`).

Design constraints, mirroring :class:`~repro.telemetry.instruments.Histogram`:

* **Fixed cadence** — a ``min_interval_s`` gate drops samples that
  arrive faster than the configured cadence, so a pathological caller
  (a kHz decision loop) cannot flood the buffer.  A sample whose
  timestamp moves *backwards* re-opens the gate: experiments that run
  several sessions in one scope restart their clocks at zero.
* **Bounded memory with deterministic decimation** — the buffer keeps
  at most ``max_points`` retained samples.  When it fills, every other
  retained sample is dropped and recording switches to every
  ``stride``-th accepted sample.  The decimation pattern depends only
  on the arrival sequence, never on wall time or randomness, so equal
  runs produce equal series.
* **Exact aggregates** — ``count``/``total``/``minimum``/``maximum``
  cover every *accepted* sample regardless of decimation, so min/max
  (and the mean) survive decimation exactly; quantiles and windowed
  fractions are computed over the retained reservoir.
* **Pure, associative merge** — scope folding concatenates retained
  samples and adds aggregates, so a child scope's timeline lands in
  the parent untouched.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

#: Default retained-sample capacity per series.
DEFAULT_MAX_POINTS = 2048

#: Default cadence gate: accept at most one sample per 5 simulated ms
#: (200 Hz), comfortably above the 90 Hz VR frame clock.
DEFAULT_MIN_INTERVAL_S = 0.005


class TimeSeries:
    """A bounded ``(t, value)`` ring buffer with exact aggregates."""

    __slots__ = (
        "name",
        "max_points",
        "min_interval_s",
        "count",
        "total",
        "minimum",
        "maximum",
        "first_t_s",
        "last_t_s",
        "_times",
        "_values",
        "_stride",
        "_phase",
        "_gate_t",
    )

    def __init__(
        self,
        name: str,
        max_points: int = DEFAULT_MAX_POINTS,
        min_interval_s: float = 0.0,
    ) -> None:
        if max_points < 2:
            raise ValueError("max_points must be >= 2")
        if min_interval_s < 0.0:
            raise ValueError("min_interval_s must be >= 0")
        self.name = name
        self.max_points = int(max_points)
        self.min_interval_s = float(min_interval_s)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.first_t_s: Optional[float] = None
        self.last_t_s: Optional[float] = None
        self._times: List[float] = []
        self._values: List[float] = []
        self._stride = 1
        self._phase = 0
        self._gate_t: Optional[float] = None

    # -- recording -------------------------------------------------------

    def sample(self, t_s: float, value: float) -> bool:
        """Offer one sample; returns whether the cadence gate accepted it."""
        t = float(t_s)
        v = float(value)
        if not math.isfinite(t):
            raise ValueError(f"series {self.name!r} got non-finite time {t_s!r}")
        if not math.isfinite(v):
            raise ValueError(f"series {self.name!r} got non-finite value {value!r}")
        if (
            self.min_interval_s > 0.0
            and self._gate_t is not None
            and 0.0 <= t - self._gate_t < self.min_interval_s
        ):
            return False
        self._gate_t = t
        self.count += 1
        self.total += v
        if v < self.minimum:
            self.minimum = v
        if v > self.maximum:
            self.maximum = v
        if self.first_t_s is None or t < self.first_t_s:
            self.first_t_s = t
        if self.last_t_s is None or t > self.last_t_s:
            self.last_t_s = t
        if self._phase == 0:
            self._times.append(t)
            self._values.append(v)
            if len(self._times) >= self.max_points:
                self._times = self._times[::2]
                self._values = self._values[::2]
                self._stride *= 2
        self._phase = (self._phase + 1) % self._stride
        return True

    # -- reading ---------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def retained(self) -> int:
        """Number of samples currently held in the reservoir."""
        return len(self._times)

    def points(self) -> List[Tuple[float, float]]:
        """Retained ``(t, value)`` samples in time order.

        Sorting matters because merged scopes (or multi-session
        experiments that restart their clock) interleave timelines.
        The sort is stable, so equal timestamps keep arrival order.
        """
        return sorted(zip(self._times, self._values), key=lambda p: p[0])

    def summary(self) -> Dict[str, object]:
        """JSON-ready digest (no raw points)."""
        return {
            "count": self.count,
            "retained": self.retained,
            "first_t_s": self.first_t_s,
            "last_t_s": self.last_t_s,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean if self.count else None,
        }

    def to_dict(self) -> Dict[str, object]:
        """Full JSON export: the digest plus the retained points."""
        out = self.summary()
        out["points"] = [[t, v] for t, v in self.points()]
        return out

    # -- combination -----------------------------------------------------

    def merge(self, other: "TimeSeries") -> "TimeSeries":
        """Combine two series into a new one (pure, associative).

        Retained samples concatenate (the reservoir may temporarily
        exceed ``max_points`` — merges happen once per scope exit, not
        per sample); exact aggregates add exactly.  The cadence gate
        resets: a merged series is a finished timeline, not a live
        sampling target.
        """
        out = TimeSeries(
            self.name,
            max_points=max(self.max_points, other.max_points),
            min_interval_s=max(self.min_interval_s, other.min_interval_s),
        )
        out.count = self.count + other.count
        out.total = self.total + other.total
        out.minimum = min(self.minimum, other.minimum)
        out.maximum = max(self.maximum, other.maximum)
        firsts = [t for t in (self.first_t_s, other.first_t_s) if t is not None]
        lasts = [t for t in (self.last_t_s, other.last_t_s) if t is not None]
        out.first_t_s = min(firsts) if firsts else None
        out.last_t_s = max(lasts) if lasts else None
        out._times = self._times + other._times
        out._values = self._values + other._values
        out._stride = max(self._stride, other._stride)
        out._phase = 0
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimeSeries({self.name!r}, n={self.count}, retained={self.retained})"


__all__ = ["TimeSeries", "DEFAULT_MAX_POINTS", "DEFAULT_MIN_INTERVAL_S"]

"""Metric instruments: counters and bounded histograms.

These are the value-holding primitives behind
:class:`~repro.telemetry.registry.MetricsRegistry`.  They are plain
Python objects with no locking — like the perf counters they replace,
they are meant for observability, not exact accounting under free
threading.

The histogram keeps a *bounded* reservoir of raw samples.  Quantile
estimates are exact (they match ``numpy.percentile`` on the raw
stream) until the stream outgrows ``max_samples``; beyond that the
reservoir is decimated to every ``stride``-th observation, which keeps
memory constant while preserving the stream's coverage in time.  The
reservoir is an ``array("d")`` (8 bytes per sample).  ``merge`` is a
pure function (neither operand is mutated): exact aggregates combine
exactly, and the reservoirs concatenate and are re-decimated by the
same rule until they fit, so scope folding stays bounded too.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List

import numpy as np

#: Default histogram reservoir capacity (raw samples retained).
DEFAULT_MAX_SAMPLES = 4096

#: Quantiles reported in every histogram summary.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


class Counter:
    """A monotonically adjustable integer tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = int(value)

    def inc(self, amount: int = 1) -> None:
        self.value += int(amount)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """Bounded-memory distribution sketch with quantile estimates.

    Exact aggregates (``count``, ``total``, ``minimum``, ``maximum``)
    are maintained for the whole stream; a reservoir of raw samples
    backs the quantiles.  While ``count <= max_samples`` the reservoir
    *is* the raw stream, so ``quantile(q)`` equals
    ``numpy.percentile(stream, 100 * q)`` exactly.  Past that point
    the reservoir is halved (every other sample kept) and recording
    switches to every ``stride``-th observation.
    """

    __slots__ = (
        "name",
        "max_samples",
        "count",
        "total",
        "minimum",
        "maximum",
        "_samples",
        "_stride",
        "_phase",
    )

    def __init__(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.max_samples = int(max_samples)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._samples = array("d")
        self._stride = 1
        self._phase = 0

    # -- recording -------------------------------------------------------

    def record(self, value: float) -> None:
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"histogram {self.name!r} observed non-finite {value!r}")
        self.count += 1
        self.total += v
        if v < self.minimum:
            self.minimum = v
        if v > self.maximum:
            self.maximum = v
        if self._phase == 0:
            self._samples.append(v)
            if len(self._samples) >= self.max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2
        self._phase = (self._phase + 1) % self._stride

    # -- derived values --------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def samples(self) -> List[float]:
        """The retained reservoir (a copy)."""
        return list(self._samples)

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` quantile (``0 <= q <= 1``) of the stream.

        Matches ``numpy.percentile(raw_stream, 100 * q)`` exactly
        while the reservoir has not been decimated.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} is empty")
        return float(np.percentile(self._samples, 100.0 * q))

    def summary(self) -> Dict[str, object]:
        """JSON-ready digest: count, mean, extrema, p50/p95/p99."""
        out: Dict[str, object] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }
        for q in SUMMARY_QUANTILES:
            key = f"p{int(q * 100)}"
            out[key] = self.quantile(q) if self._samples else None
        return out

    # -- combination -----------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Combine two histograms into a new one (pure, associative).

        Exact aggregates stay exact.  Reservoirs concatenate, then are
        halved (every other sample kept, doubling the stride) until
        they fit in ``max_samples``; so the retained samples are
        associative only while the combined count fits.
        """
        out = Histogram(self.name, max_samples=max(self.max_samples, other.max_samples))
        out.count = self.count + other.count
        out.total = self.total + other.total
        out.minimum = min(self.minimum, other.minimum)
        out.maximum = max(self.maximum, other.maximum)
        out._samples = self._samples + other._samples
        out._stride = max(self._stride, other._stride)
        while len(out._samples) > out.max_samples:
            out._samples = out._samples[::2]
            out._stride *= 2
        out._phase = 0
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={self.count})"


__all__ = [
    "Counter",
    "Histogram",
    "DEFAULT_MAX_SAMPLES",
    "SUMMARY_QUANTILES",
]

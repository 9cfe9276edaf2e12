"""The metrics registry: named instruments, snapshots, and merging.

One :class:`MetricsRegistry` belongs to each telemetry scope (see
:mod:`repro.telemetry.scopes`).  Instruments are created lazily on
first use, so call sites never need to pre-declare what they measure:

    telemetry.inc("scene.cache.hits")
    telemetry.observe("link.sweep_ms", elapsed_ms)

Metric names are dotted paths; the convention is
``<subsystem>.<thing>[.<aspect>]`` (``scene.tracer_calls``,
``kernel.angles``, ``angle_search.sweep_ms``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.instruments import (
    DEFAULT_MAX_SAMPLES,
    Counter,
    Histogram,
)
from repro.telemetry.timeseries import (
    DEFAULT_MAX_POINTS,
    DEFAULT_MIN_INTERVAL_S,
    TimeSeries,
)


class MetricsRegistry:
    """A namespace of counters, histograms, and time series."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    # -- instrument access (get-or-create) -------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def histogram(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, max_samples=max_samples)
        return instrument

    def series(
        self,
        name: str,
        max_points: int = DEFAULT_MAX_POINTS,
        min_interval_s: float = DEFAULT_MIN_INTERVAL_S,
    ) -> TimeSeries:
        """Get-or-create a time series (creation params apply once)."""
        instrument = self._series.get(name)
        if instrument is None:
            instrument = self._series[name] = TimeSeries(
                name, max_points=max_points, min_interval_s=min_interval_s
            )
        return instrument

    def get_series(self, name: str) -> Optional[TimeSeries]:
        """The named series, or ``None`` if nothing sampled it."""
        return self._series.get(name)

    def series_names(self) -> List[str]:
        """Sorted names of every recorded time series.

        Lets consumers discover dynamically named series — e.g. the
        SLO engine finding every ``user<i>.rate.mbps`` a multi-user
        run sampled.
        """
        return sorted(self._series)

    # -- recording conveniences ------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        # Inlined get-or-create: this is the hottest telemetry call
        # (per kernel batch), so avoid the extra method dispatch.
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        instrument.value += amount

    def observe(self, name: str, value: float) -> None:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        instrument.record(value)

    def sample(
        self,
        name: str,
        t_s: float,
        value: float,
        min_interval_s: float = DEFAULT_MIN_INTERVAL_S,
    ) -> bool:
        """Offer one time-series sample; returns whether it was taken."""
        return self.series(name, min_interval_s=min_interval_s).sample(t_s, value)

    # -- reading ---------------------------------------------------------

    def counter_value(self, name: str) -> int:
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dump of every instrument in this registry."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
            "series": {n: s.summary() for n, s in sorted(self._series.items())},
        }

    def series_export(self) -> Dict[str, Dict[str, object]]:
        """Full time-series dump including retained points (``--timeseries``)."""
        return {n: s.to_dict() for n, s in sorted(self._series.items())}

    def reset(self) -> None:
        """Drop every instrument (start of a fresh measurement window)."""
        self._counters.clear()
        self._histograms.clear()
        self._series.clear()

    # -- combination ------------------------------------------------------

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s measurements into this registry.

        Counters add, histograms and time series merge.  Used when a
        nested telemetry scope exits: the parent absorbs the child's
        activity without the child ever being able to zero the parent.
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, hist in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = hist.merge(
                    Histogram(name, max_samples=hist.max_samples)
                )
            else:
                self._histograms[name] = mine.merge(hist)
        for name, series in other._series.items():
            mine_series = self._series.get(name)
            if mine_series is None:
                self._series[name] = series.merge(
                    TimeSeries(name, max_points=series.max_points)
                )
            else:
                self._series[name] = mine_series.merge(series)


__all__ = ["MetricsRegistry"]

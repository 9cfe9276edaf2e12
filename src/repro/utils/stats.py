"""Statistics helpers: empirical CDFs, percentiles, and summary tables.

The paper reports its end-to-end result (Fig. 9) as a CDF of per-run
SNR improvement; this module provides the empirical-CDF machinery that
the experiment harness and report printers share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class EmpiricalCdf:
    """Empirical cumulative distribution function over a sample set.

    ``values`` are sorted ascending; ``probabilities[i]`` is
    ``P(X <= values[i])`` using the standard ``i/n`` right-continuous
    estimator.
    """

    values: np.ndarray
    probabilities: np.ndarray

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "EmpiricalCdf":
        """Build a CDF from raw samples.

        >>> cdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
        >>> cdf.values.tolist()
        [1.0, 2.0, 3.0]
        """
        arr = np.sort(np.asarray(list(samples), dtype=float))
        if arr.size == 0:
            raise ValueError("cannot build a CDF from zero samples")
        probs = np.arange(1, arr.size + 1, dtype=float) / arr.size
        return cls(values=arr, probabilities=probs)

    def evaluate(self, x: float) -> float:
        """Return ``P(X <= x)``."""
        return float(np.searchsorted(self.values, x, side="right")) / self.values.size

    def percentile(self, q: float) -> float:
        """Return the value at quantile ``q`` in ``[0, 1]``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self.values, q))

    @property
    def median(self) -> float:
        return self.percentile(0.5)

    @property
    def minimum(self) -> float:
        return float(self.values[0])

    @property
    def maximum(self) -> float:
        return float(self.values[-1])

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold``."""
        return float(np.searchsorted(self.values, threshold, side="left")) / self.values.size

    def series(self, num_points: int = 50) -> List[Tuple[float, float]]:
        """Downsample to ``num_points`` (value, probability) pairs for printing."""
        if num_points <= 1:
            raise ValueError("num_points must be >= 2")
        idx = np.unique(
            np.linspace(0, self.values.size - 1, num=min(num_points, self.values.size)).astype(int)
        )
        return [(float(self.values[i]), float(self.probabilities[i])) for i in idx]


@dataclass
class SummaryStats:
    """Five-number-plus-mean summary of a sample set."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "SummaryStats":
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            raise ValueError("cannot summarize zero samples")
        return cls(
            count=int(arr.size),
            mean=float(np.mean(arr)),
            std=float(np.std(arr)),
            minimum=float(np.min(arr)),
            p25=float(np.percentile(arr, 25)),
            median=float(np.median(arr)),
            p75=float(np.percentile(arr, 75)),
            maximum=float(np.max(arr)),
        )

    def as_row(self) -> Dict[str, float]:
        """Dictionary form, convenient for the report printers."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "max": self.maximum,
        }


@dataclass
class RunningStats:
    """Streaming mean/variance (Welford) for long simulation runs."""

    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def push(self, x: float) -> None:
        """Incorporate one sample."""
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        self.minimum = min(self.minimum, x)
        self.maximum = max(self.maximum, x)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no samples pushed")
        return self._mean

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return self.variance ** 0.5

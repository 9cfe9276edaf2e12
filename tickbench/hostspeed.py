"""How fast the host runs right now, from a fixed reference kernel.

The benchmark's host is shared: other tenants' load comes and goes in
phases of seconds to minutes and slows this process by up to ~1.7x,
in wall time and in CPU time alike.  Ticks timed in a slow phase would
read slower although the program did not change.

:class:`HostSpeed` times a small reference kernel at most every
``INTERVAL_S`` and returns the factor ``REFERENCE_S / measured``.  The
kernel is NumPy calls on one-element arrays: of the candidates tried
(this one, frozen-dataclass vector arithmetic in pure Python, and a mix
of the two), its slowdown under load tracked the decision tick's most
closely on both the ``seated`` and the ``roomscale`` workload.
Multiplying a wall time by that factor gives *reference-host seconds*:
the time the same work would have taken while the kernel ran at its
nominal speed.  The kernel is part of the benchmark, never of the
program, so a change to the program cannot move it.  The garbage
collector is paused while the kernel runs, so the program's heap size
cannot slow the kernel either.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import deque
from typing import Deque

import numpy as np

#: Nominal run time of one :func:`reference_kernel` call, in seconds:
#: about its best-of-3 time in a quiet phase of the shared 2-vCPU
#: x86-64 container the benchmark was tuned on (CPython 3.11, NumPy
#: 2.4).  Only the unit of the reported times depends on it.
REFERENCE_S = 1.0e-4

#: The kernel is timed at most this often ...
INTERVAL_S = 0.05
#: ... and the factor uses the median of this many latest timings, so
#: one timing disturbed by an interrupt does not rescale the ticks
#: around it.
WINDOW = 5
#: Each timing is the best of this many kernel calls.
REPEATS = 3

_ANGLE = np.array([0.3])


def reference_kernel() -> float:
    """Fixed work: NumPy expressions on one-element arrays, whose cost
    is almost all per-call overhead, as in the simulator's per-path
    antenna and link-budget kernels."""
    total = 0.0
    for i in range(10):
        total += float(np.sum(np.log10(np.abs(np.sinc(_ANGLE * i)) + 1e-9)))
    return total


def measure_reference() -> float:
    """Best-of-``REPEATS`` wall time of the reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class HostSpeed:
    """Current host-speed factor."""

    def __init__(self) -> None:
        self._recent: Deque[float] = deque(maxlen=WINDOW)
        self._at = -math.inf
        self._factor = 1.0

    def factor(self) -> float:
        """``REFERENCE_S`` over the reference kernel's current time."""
        if time.perf_counter() - self._at >= INTERVAL_S:
            self._recent.append(measure_reference())
            self._factor = REFERENCE_S / statistics.median(self._recent)
            self._at = time.perf_counter()
        return self._factor

"""Decibel-domain arithmetic.

Every quantity in a link budget lives either in the linear domain
(power ratios, watts) or the logarithmic domain (dB, dBm).  Mixing the
two silently is the classic source of link-budget bugs, so this module
centralizes all conversions and the few operations that are legitimate
directly in the log domain (adding gains, combining incoherent powers).
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

#: Smallest linear power considered non-zero when converting to dB.
#: Anything below this maps to ``-inf`` dB rather than raising.
_LINEAR_FLOOR = 1e-30


def linear_to_db(value_linear: ArrayLike) -> ArrayLike:
    """Convert a linear power ratio to dB.

    Non-positive inputs map to ``-inf`` (a fully dark path) instead of
    raising, because blocked rays legitimately carry zero power.

    >>> linear_to_db(100.0)
    20.0
    """
    arr = np.asarray(value_linear, dtype=float)
    out = np.full_like(arr, -np.inf)
    mask = arr > _LINEAR_FLOOR
    np.log10(arr, where=mask, out=out)
    out *= 10.0
    if np.isscalar(value_linear) or arr.ndim == 0:
        return float(out)
    return out


def db_sum_powers(powers_db, axis: Optional[int] = None):
    """Incoherently combine powers expressed in dB (or dBm).

    This is the correct way to add the power of independent paths: the
    linear powers add, not the dB values.  ``-inf`` entries (dark
    paths) are ignored; an empty or all-dark input yields ``-inf``.

    Accepts either an iterable of floats (returns a float) or an
    ``ndarray``.  For arrays, ``axis`` selects the reduction axis —
    e.g. a per-path power grid of shape ``(P, T, R)`` combines into a
    ``(T, R)`` total with ``axis=0`` — and the result is an array
    (``axis=None`` reduces everything to a float).  Dark entries
    contribute zero linear power in either form.

    >>> round(db_sum_powers([10.0, 10.0]), 4)
    13.0103
    """
    if isinstance(powers_db, np.ndarray):
        # 10**(-inf) underflows to exactly 0.0 — dark paths drop out.
        total = np.sum(np.power(10.0, powers_db / 10.0), axis=axis)
        return linear_to_db(total)
    total = 0.0
    for p in powers_db:
        if p == -math.inf:
            continue
        total += 10.0 ** (p / 10.0)
    if total <= 0.0:
        return -math.inf
    return 10.0 * math.log10(total)

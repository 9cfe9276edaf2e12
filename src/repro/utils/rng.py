"""Deterministic random-number plumbing.

Every stochastic component in the simulator takes an explicit
``numpy.random.Generator``; nothing touches global random state.  This
module provides the conventions for deriving independent child streams
from a single experiment seed so entire paper figures are reproducible
bit-for-bit from one integer.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]

#: Seed used when an experiment does not specify one.
DEFAULT_SEED = 0x4D6F5652  # "MoVR"


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Normalize a seed/generator argument into a ``Generator``.

    Accepts ``None`` (default seed), an integer seed, or an existing
    generator (returned unchanged so callers can share a stream).
    """
    if seed is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_rng(parent: np.random.Generator, stream_id: int) -> np.random.Generator:
    """Derive an independent child generator from a parent stream.

    Used to give each run of a multi-run experiment its own stream so
    that adding runs never perturbs earlier ones.
    """
    if stream_id < 0:
        raise ValueError(f"stream_id must be non-negative, got {stream_id}")
    seed_seq = np.random.SeedSequence(
        entropy=int(parent.integers(0, 2**32)), spawn_key=(stream_id,)
    )
    return np.random.default_rng(seed_seq)

#!/usr/bin/env python3
"""Room planner: where should the MoVR reflectors go?

A deployment tool built on the public API: sweeps candidate wall
mounting spots for one or two reflectors and scores each layout by VR
coverage — the fraction of (player pose, blockage) combinations where
the system still sustains the required rate.  This is the question an
installer actually faces; the paper's opposite-corner choice falls out
as one of the best single-reflector layouts.

Run:  python examples/room_planner.py
"""

from itertools import combinations
from typing import Sequence, Tuple

from repro.core import MoVRReflector, MoVRSystem
from repro.experiments.testbed import (
    BLOCKING_SCENARIOS,
    ROOM_SIZE_M,
    Testbed,
)
from repro.geometry import standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.radios import DEFAULT_RADIO_CONFIG, Radio
from repro.phy import MmWaveChannel
from repro.utils.rng import make_rng
from repro.vr import DEFAULT_TRAFFIC

#: Candidate mounting spots: wall midpoints and far corners.
CANDIDATE_SPOTS = {
    "far corner": Vec2(4.7, 4.7),
    "east corner": Vec2(4.7, 0.3),
    "north corner": Vec2(0.3, 4.7),
    "north wall mid": Vec2(2.5, 4.85),
    "east wall mid": Vec2(4.85, 2.5),
}


def coverage_for_layout(
    spots: Sequence[Tuple[str, Vec2]],
    num_poses: int = 12,
    seed: int = 99,
) -> float:
    """VR coverage of a reflector layout over random blocked poses."""
    room = standard_office()
    center = Vec2(ROOM_SIZE_M / 2.0, ROOM_SIZE_M / 2.0)
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, config=DEFAULT_RADIO_CONFIG)
    reflectors = [
        MoVRReflector(pos, boresight_deg=bearing_deg(pos, center), name=name)
        for name, pos in spots
    ]
    rng = make_rng(seed)
    system = MoVRSystem(
        room, ap, reflectors, channel=MmWaveChannel(shadowing_sigma_db=0.0), rng=rng
    )
    system.calibrate_reflector_gains()
    bed = Testbed(room=room, system=system, rng=rng)
    required = DEFAULT_TRAFFIC.required_rate_mbps
    hits = 0
    total = 0
    for i in range(num_poses):
        headset = bed.random_headset()
        for scenario in BLOCKING_SCENARIOS:
            occluders = bed.blockage_occluders(scenario, headset)
            decision = system.decide(headset, extra_occluders=occluders)
            hits += int(decision.rate_mbps >= required)
            total += 1
    return hits / total


def main() -> None:
    print("single-reflector layouts (coverage under blockage):")
    singles = []
    for name, pos in CANDIDATE_SPOTS.items():
        coverage = coverage_for_layout([(name, pos)])
        singles.append((coverage, name))
        print(f"  {name:<16} {100.0 * coverage:5.1f}%")
    singles.sort(reverse=True)
    print(f"\nbest single spot: {singles[0][1]} "
          f"({100.0 * singles[0][0]:.1f}%)\n")

    print("two-reflector layouts:")
    pairs = []
    for (n1, p1), (n2, p2) in combinations(CANDIDATE_SPOTS.items(), 2):
        coverage = coverage_for_layout([(n1, p1), (n2, p2)], num_poses=8)
        pairs.append((coverage, f"{n1} + {n2}"))
    pairs.sort(reverse=True)
    for coverage, label in pairs[:3]:
        print(f"  {label:<34} {100.0 * coverage:5.1f}%")
    print(f"\nrecommended layout: {pairs[0][1]}")


if __name__ == "__main__":
    main()

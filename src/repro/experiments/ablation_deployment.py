"""Deployment ablations: mounting height, reflector count, carrier band.

Three design choices DESIGN.md calls out, each swept against VR
coverage under blockage:

* **mounting** — elevated (wall-high, the paper's Fig. 5) vs
  floor-level reflectors, whose feed a walking person can cut;
* **reflector count** — 1, 2 or 3 reflectors on the walls;
* **carrier** — the prototype's 24 GHz ISM band vs 802.11ad's 60 GHz
  band, where the oxygen line and higher spreading loss bite.
"""

from __future__ import annotations



from repro.core.controller import MoVRSystem
from repro.core.reflector import MoVRReflector
from repro.experiments.harness import ExperimentReport, scoped_run
from repro.experiments.testbed import (
    BLOCKING_SCENARIOS,
    ROOM_SIZE_M,
    Testbed,
)
from repro.geometry.room import standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.radios import Radio, RadioConfig
from repro.phy.antenna import PhasedArrayConfig
from repro.phy.channel import MmWaveChannel
from repro.utils.rng import RngLike, child_rng, make_rng
from repro.vr.traffic import DEFAULT_TRAFFIC

REFLECTOR_SPOTS = [
    Vec2(ROOM_SIZE_M - 0.3, ROOM_SIZE_M - 0.3),
    Vec2(ROOM_SIZE_M - 0.3, 0.3),
    Vec2(0.3, ROOM_SIZE_M - 0.3),
]


def _build_system(
    num_reflectors: int,
    elevated: bool,
    carrier_hz: float,
    rng,
) -> MoVRSystem:
    room = standard_office()
    center = Vec2(ROOM_SIZE_M / 2.0, ROOM_SIZE_M / 2.0)
    radio_config = RadioConfig(
        array=PhasedArrayConfig(carrier_hz=carrier_hz)
    )
    ap = Radio(
        Vec2(0.3, 0.3),
        boresight_deg=45.0,
        config=radio_config,
        name="ap",
    )
    reflectors = [
        MoVRReflector(
            spot,
            boresight_deg=bearing_deg(spot, center),
            array=PhasedArrayConfig(max_scan_deg=50.0, carrier_hz=carrier_hz),
            name=f"movr{i}",
        )
        for i, spot in enumerate(REFLECTOR_SPOTS[:num_reflectors])
    ]
    system = MoVRSystem(
        room,
        ap,
        reflectors,
        channel=MmWaveChannel(carrier_hz=carrier_hz, shadowing_sigma_db=0.0),
        elevated_mounting=elevated,
        rng=rng,
    )
    system.calibrate_reflector_gains()
    return system


def _coverage(system: MoVRSystem, rng, num_poses: int) -> float:
    """VR-rate coverage over random blocked poses."""
    bed = Testbed(room=system.room, system=system, rng=rng)
    required = DEFAULT_TRAFFIC.required_rate_mbps
    hits = total = 0
    for i in range(num_poses):
        headset = bed.random_headset()
        # Re-wire the headset onto the system's carrier so the antenna
        # model stays consistent.
        for scenario in BLOCKING_SCENARIOS:
            occluders = bed.blockage_occluders(scenario, headset)
            decision = system.decide(headset, extra_occluders=occluders)
            hits += int(decision.rate_mbps >= required)
            total += 1
    return hits / total


@scoped_run("ablation-deployment")
def run_ablation_deployment(
    num_poses: int = 8,
    seed: RngLike = None,
) -> ExperimentReport:
    """Sweep mounting / count / carrier; report VR coverage."""
    if num_poses < 1:
        raise ValueError("num_poses must be >= 1")
    rng = make_rng(seed)
    report = ExperimentReport(
        experiment_id="ablation-deployment",
        title="Deployment choices: mounting, reflector count, carrier",
    )
    variants = [
        ("1 reflector, elevated, 24 GHz (paper)", 1, True, 24.0e9),
        ("1 reflector, floor-level, 24 GHz", 1, False, 24.0e9),
        ("2 reflectors, elevated, 24 GHz", 2, True, 24.0e9),
        ("3 reflectors, elevated, 24 GHz", 3, True, 24.0e9),
        ("1 reflector, elevated, 60 GHz", 1, True, 60.0e9),
    ]
    coverage = {}
    for i, (label, count, elevated, carrier) in enumerate(variants):
        system = _build_system(count, elevated, carrier, child_rng(rng, i))
        value = _coverage(system, child_rng(rng, 100 + i), num_poses)
        coverage[label] = value
        report.add_row(
            variant=label,
            reflectors=count,
            elevated=elevated,
            carrier_ghz=carrier / 1e9,
            vr_coverage_pct=100.0 * value,
        )

    paper = coverage["1 reflector, elevated, 24 GHz (paper)"]
    report.check(
        "the paper's deployment covers (nearly) all blocked poses",
        paper >= 0.9,
        f"{100.0 * paper:.0f}% coverage",
    )
    report.check(
        "floor-level mounting is never better than elevated",
        coverage["1 reflector, floor-level, 24 GHz"] <= paper,
        f"{100.0 * coverage['1 reflector, floor-level, 24 GHz']:.0f}% vs "
        f"{100.0 * paper:.0f}%",
    )
    report.check(
        "more reflectors never hurt coverage",
        coverage["3 reflectors, elevated, 24 GHz"]
        >= coverage["2 reflectors, elevated, 24 GHz"]
        >= paper - 1e-9,
        "monotone in reflector count",
    )
    report.check(
        "60 GHz still works at room scale (the design ports to 802.11ad)",
        coverage["1 reflector, elevated, 60 GHz"] >= 0.7,
        f"{100.0 * coverage['1 reflector, elevated, 60 GHz']:.0f}% coverage",
    )
    return report

"""Extension experiment: what beam searching costs the video stream.

Section 6 of the paper flags beam alignment as "the most time consuming
process in the design".  This experiment makes that concrete on two
clocks:

* **data-plane airtime** — a blocking search of N probes steals N
  probe-slots from frame delivery; the scheduler counts lost frames;
* **control-plane time** — every reflector retune is a BLE message, so
  the *installation* sweep is bounded by the control link, not by the
  phase shifters.

Strategies compared: the paper's exhaustive 1-degree joint sweep,
802.11ad SLS, hierarchical, and pose-assisted tracking.
"""

from __future__ import annotations

from typing import Dict

from repro.control.bluetooth import BleLink
from repro.control.protocol import ReflectorCoordinator
from repro.control.scheduler import AirtimeScheduler, compare_search_strategies
from repro.core.angle_search import BackscatterAngleSearch
from repro.core.reflector import MoVRReflector
from repro.experiments.harness import ExperimentReport, scoped_run
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.beams import Codebook
from repro.link.radios import DEFAULT_RADIO_CONFIG, Radio
from repro.link.sls import sls_probe_count
from repro.phy.channel import MmWaveChannel
from repro.utils.rng import RngLike, child_rng, make_rng


@scoped_run("ext-search-airtime")
def run_search_airtime(seed: RngLike = None) -> ExperimentReport:
    """Frame cost and installation time of each alignment strategy."""
    rng = make_rng(seed)
    report = ExperimentReport(
        experiment_id="ext-search-airtime",
        title="Beam search cost: frames lost and installation time",
    )
    scheduler = AirtimeScheduler()

    # Probe budgets per strategy (from the ablation experiments).
    joint_1deg = 121 * 101  # AP scan x reflector range, 1 degree
    strategies: Dict[str, int] = {
        "exhaustive-1deg (paper sec. 4.1)": joint_1deg,
        "802.11ad SLS": sls_probe_count(121, 101),
        "hierarchical": 234,
        "pose-assisted update": 1,
    }
    for row in compare_search_strategies(strategies, scheduler):
        report.add_row(**row)

    # Control-plane clock: a BLE-coordinated installation sweep.
    room = standard_office(furnished=False)
    tracer = RayTracer(room)
    channel = MmWaveChannel()
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, config=DEFAULT_RADIO_CONFIG)
    position = Vec2(4.0, 4.2)
    reflector = MoVRReflector(
        position, boresight_deg=bearing_deg(position, ap.position)
    )
    search = BackscatterAngleSearch(
        ap, reflector, tracer, channel, rng=child_rng(rng, 0)
    )
    truth_ap = search._bearing_ap_to_refl
    coordinator = ReflectorCoordinator(
        reflector, BleLink(rng=child_rng(rng, 1))
    )
    codebook = Codebook.uniform(40.0, 140.0, 2.0)
    estimate = coordinator.run_angle_search(
        lambda proto: search.measure_sideband_dbm(truth_ap, proto),
        codebook=codebook,
    )
    install_sweep_s = coordinator.elapsed_s
    # The probes never steer the reflector; the hardware holds the last beam.
    last = reflector.prototype_to_azimuth(codebook.angles_deg[-1])
    reflector.set_beams(last, last)
    coordinator.run_gain_calibration(input_power_dbm=-48.0)
    install_total_s = coordinator.elapsed_s
    truth = reflector.azimuth_to_prototype(search._bearing_refl_to_ap)
    report.note(
        f"BLE-coordinated installation: angle sweep {install_sweep_s:.1f} s "
        f"(estimate {estimate:.0f} deg, truth {truth:.1f} deg), "
        f"+ gain calibration -> {install_total_s:.1f} s total, "
        f"{coordinator.log.message_count} control messages"
    )

    by_name = {row["strategy"]: row for row in report.rows}
    report.check(
        "the paper's exhaustive sweep visibly glitches the stream",
        by_name["exhaustive-1deg (paper sec. 4.1)"]["frames_lost"] >= 3,
        f"{by_name['exhaustive-1deg (paper sec. 4.1)']['frames_lost']} frames "
        f"lost over {by_name['exhaustive-1deg (paper sec. 4.1)']['search_time_ms']:.0f} ms",
    )
    report.check(
        "a pose-assisted update is free (zero frames lost)",
        by_name["pose-assisted update"]["frames_lost"] == 0,
        "1 probe fits inside a frame's slack",
    )
    report.check(
        "SLS is cheaper than the joint sweep but still not free",
        by_name["802.11ad SLS"]["probes"] < joint_1deg / 10,
        f"{by_name['802.11ad SLS']['probes']} probes",
    )
    report.check(
        "installation is control-plane bound (BLE, seconds not ms)",
        install_sweep_s > 0.3,
        f"{install_sweep_s:.1f} s for a 51-step sweep over BLE vs "
        f"{51 * 5e-6 * 1000:.1f} ms of raw probe airtime",
    )
    report.check(
        "the BLE-coordinated sweep still lands on the right angle",
        abs(estimate - truth) <= 2.5,
        f"estimate {estimate:.0f} deg vs truth {truth:.1f} deg",
    )
    return report

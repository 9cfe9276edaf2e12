"""Ablation: beam-search strategies and their probe budgets.

Section 6 of the paper notes "finding the best beam alignment is the most
time consuming process in the design".  This ablation quantifies the
cost/accuracy trade across search strategies on the backscatter
alignment task (same physics as Fig. 8):

* **exhaustive-1deg** — the paper's joint sweep at 1 degree steps;
* **exhaustive-3deg** — coarser joint sweep;
* **hierarchical** — coarse 10 degree joint sweep, then a +/-6 degree
  refinement around the winner (2 degree AP steps, 1 degree reflector
  steps) through :func:`repro.link.beams.hierarchical_joint_sweep`.

Metrics: probe count, implied sweep latency, and alignment error.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.angle_search import BackscatterAngleSearch
from repro.core.leakage import ReflectorLeakageModel
from repro.core.reflector import REFLECTOR_ARRAY
from repro.experiments.fig8_alignment import _random_reflector
from repro.experiments.harness import ExperimentReport, scoped_run
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import standard_office
from repro.geometry.vectors import Vec2
from repro.link.beams import (
    DEFAULT_PROBE_TIME_S,
    Codebook,
    exhaustive_joint_sweep,
    hierarchical_joint_sweep,
)
from repro.link.radios import DEFAULT_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel
from repro.utils.rng import RngLike, child_rng, make_rng


@scoped_run("ablation-search")
def run_ablation_search(
    num_runs: int = 15,
    seed: RngLike = None,
) -> ExperimentReport:
    """Compare joint-search strategies on the alignment task."""
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    rng = make_rng(seed)
    room = standard_office(furnished=False)
    tracer = RayTracer(room)
    channel = MmWaveChannel()
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, config=DEFAULT_RADIO_CONFIG)

    strategies = ("exhaustive-1deg", "exhaustive-3deg", "hierarchical")
    errors: Dict[str, List[float]] = {s: [] for s in strategies}
    probes: Dict[str, List[int]] = {s: [] for s in strategies}

    shared_leakage = ReflectorLeakageModel(array=REFLECTOR_ARRAY)
    for run in range(num_runs):
        run_rng = child_rng(rng, run)
        reflector = _random_reflector(run_rng, ap.position, leakage=shared_leakage)
        search = BackscatterAngleSearch(
            ap, reflector, tracer, channel, rng=run_rng
        )
        truth = reflector.azimuth_to_prototype(
            search._bearing_refl_to_ap
        )

        metric = search.measure_sideband_dbm
        scan = ap.config.array.max_scan_deg
        ap_range = (ap.boresight_deg - scan, ap.boresight_deg + scan)
        for name in strategies:
            if name == "hierarchical":
                sweep = hierarchical_joint_sweep(
                    ap_range,
                    (40.0, 140.0),
                    metric,
                    coarse_step_deg=10.0,
                    fine_step_deg=(2.0, 1.0),
                    refine_span_deg=12.0,
                )
            else:
                refl_step = 1.0 if name == "exhaustive-1deg" else 3.0
                sweep = exhaustive_joint_sweep(
                    Codebook.uniform(*ap_range, 3.0),
                    Codebook.uniform(40.0, 140.0, refl_step),
                    metric,
                )
            estimate, count = sweep.best_rx_deg, sweep.num_probes
            errors[name].append(abs(estimate - truth))
            probes[name].append(count)

    report = ExperimentReport(
        experiment_id="ablation-search",
        title="Beam-search strategies: probes vs alignment error",
    )
    for name in strategies:
        err = np.asarray(errors[name])
        count = float(np.mean(probes[name]))
        report.add_row(
            strategy=name,
            mean_error_deg=float(err.mean()),
            p90_error_deg=float(np.percentile(err, 90)),
            mean_probes=count,
            sweep_time_ms=count * DEFAULT_PROBE_TIME_S * 1000.0,
        )
    exhaustive_err = float(np.mean(errors["exhaustive-1deg"]))
    hier_err = float(np.mean(errors["hierarchical"]))
    hier_probes = float(np.mean(probes["hierarchical"]))
    exhaustive_probes = float(np.mean(probes["exhaustive-1deg"]))
    report.check(
        "hierarchical search cuts probes by >3x vs the exhaustive sweep",
        hier_probes * 3.0 <= exhaustive_probes,
        f"{hier_probes:.0f} vs {exhaustive_probes:.0f} probes",
    )
    report.check(
        "hierarchical search keeps alignment error within ~2 degrees of "
        "exhaustive",
        hier_err <= exhaustive_err + 2.0,
        f"hierarchical {hier_err:.2f} deg vs exhaustive "
        f"{exhaustive_err:.2f} deg",
    )
    report.check(
        "coarse 3-degree steps already degrade alignment",
        float(np.mean(errors["exhaustive-3deg"])) >= exhaustive_err,
        f"3 deg steps: {float(np.mean(errors['exhaustive-3deg'])):.2f} deg "
        f"mean error",
    )
    return report

#!/usr/bin/env python3
"""Visualize a MoVR deployment in the terminal.

Renders the office floor plan with the AP, reflector, player and a
blocking bystander; the AP's steered beam pattern; a live SNR sweep of
the reflector's angle search; and the Fig. 9 improvement CDF — all as
plain text, no plotting libraries.

Run:  python examples/visualize_deployment.py
"""

import numpy as np

from repro.experiments import default_testbed, run_fig9
from repro.geometry import person_blocking_path
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio
from repro.utils.stats import EmpiricalCdf
from repro.viz import (
    render_beam_pattern,
    render_cdf,
    render_floor_plan,
    render_snr_sweep,
)


def main() -> None:
    bed = default_testbed(seed=11, shadowing_sigma_db=0.0)
    system = bed.system
    player = Vec2(3.4, 2.2)
    person = person_blocking_path(system.ap.position, player, fraction=0.55)

    print("floor plan (A=AP, R=reflector, H=player, o=bystander, #=furniture):")
    print(
        render_floor_plan(
            bed.room,
            markers=[
                ("A", system.ap.position),
                ("R", bed.reflector.position),
                ("H", player),
            ],
            extra_occluders=person.occluders(),
        )
    )

    print("\nAP beam pattern, steered at the player:")
    steer = system.ap.point_at(player)
    print(render_beam_pattern(system.ap.array.pattern(steer, resolution_deg=10.0)))

    print("\nreflector TX-beam sweep as seen by the headset (SNR per angle):")
    headset = Radio(
        player, boresight_deg=bearing_deg(player, bed.reflector.position),
        config=HEADSET_RADIO_CONFIG,
    )
    angles = np.arange(40.0, 141.0, 10.0)
    snrs = []
    for proto in angles:
        bed.reflector.set_beams(
            bearing_deg(bed.reflector.position, system.ap.position),
            bed.reflector.prototype_to_azimuth(float(proto)),
        )
        snrs.append(
            system.relay_link(
                bed.reflector, headset, steering=bed.reflector.beams
            ).end_to_end_snr_db
        )
    print(render_snr_sweep(list(angles), snrs, threshold_db=13.0))

    print("\nFig. 9 SNR-improvement CDF (MoVR vs unblocked LOS):")
    report = run_fig9(num_runs=16, seed=11, testbed=bed)
    improvements = [row["movr_improvement_db"] for row in report.rows]
    print(render_cdf(EmpiricalCdf.from_samples(improvements), label="MoVR - LOS [dB]"))


if __name__ == "__main__":
    main()

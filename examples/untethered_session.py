#!/usr/bin/env python3
"""A full untethered VR session: motion, blockage, handoffs, glitches.

Simulates a player moving and looking around for half a minute while a
bystander occasionally walks through the room.  Every 90 Hz frame must
cross the wireless link inside the 10 ms motion-to-photon budget; we
compare the bare mmWave link against the MoVR-equipped room and print
the QoE ledger, plus the battery outlook for the whole session.

Run:  python examples/untethered_session.py
"""

from repro.experiments import default_testbed
from repro.experiments.e2e_session import run_e2e_session
from repro.geometry import VrPlayerMotion
from repro.vr import ANKER_ASTRO_5200, HeadsetPowerModel


def main() -> None:
    bed = default_testbed(seed=2026, shadowing_sigma_db=0.0)

    # Peek at the motion model driving the session.
    motion = VrPlayerMotion(bed.room, seed=7)
    trace = motion.generate(duration_s=30.0)
    print(
        f"player trace: {len(trace)} poses over {trace.duration_s:.0f} s, "
        f"peak head rotation {trace.max_yaw_rate_deg_s():.0f} deg/s\n"
    )

    report = run_e2e_session(duration_s=30.0, seed=2026, testbed=bed)
    report.print_report()

    print()
    power = HeadsetPowerModel(mmwave_rx_current_ma=300.0, duty_cycle=0.75)
    hours = power.runtime_hours(ANKER_ASTRO_5200)
    print(
        f"battery outlook: {power.total_current_ma:.0f} mA draw on a "
        f"{ANKER_ASTRO_5200.capacity_mah:.0f} mAh pack -> "
        f"{hours:.1f} h of untethered play"
    )


if __name__ == "__main__":
    main()

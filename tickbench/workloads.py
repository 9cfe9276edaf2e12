"""Seeded inputs and closed-loop sessions for the decision-tick benchmark.

A *session* is one fixed-length run of the 90 Hz decision clock on a
freshly built testbed.  Its inputs (motion traces, pose per tick,
blockage episodes) are generated from the workload seed before any
timing starts, so every session of one seed replays the same inputs
and must produce the same decisions.

The timed region of a tick covers only the simulator's public decision
API: ``MoVRSystem.decide`` + ``RateAdapter.observe`` for one headset,
``MultiUserSystem.step`` for N headsets.  One caller drives one tick
at a time (closed loop), so host-side ticks never queue.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from hostspeed import HostSpeed
from layertrace import LayerTrace
from repro import telemetry
from repro.core.multiuser import MultiUserSystem
from repro.experiments.testbed import (
    BLOCKING_SCENARIOS,
    BlockageScenario,
    default_testbed,
)
from repro.geometry.bodies import hand_occluder, person_blocking_path, self_head_blocking
from repro.geometry.mobility import PoseSample, VrPlayerMotion
from repro.geometry.room import Occluder
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio
from repro.rate.adaptation import RateAdapter
from repro.vr.traffic import DEFAULT_TRAFFIC

#: The decision clock: one decision per displayed frame.
TICK_HZ = 90.0
TICK_S = 1.0 / TICK_HZ

#: Seed of the testbed (room, AP, reflector gain calibration).  It is
#: the same for every workload seed: the system under test stays fixed
#: and the workload seed varies only the inputs.
TESTBED_SEED = 0

#: Poisson rate and duration range of hand/head/body blockage episodes
#: (the same process as the ``ext-e2e`` session).
EPISODE_RATE_HZ = 0.25
EPISODE_DURATION_S = (0.5, 2.0)

#: Headsets in the ``crowd`` workload.  They share the room-centre play
#: area, as in ``ext-multi-user``.
CROWD_USERS = 4

#: Room-scale segments start after this much warm-up walking.
WARMUP_S = 4.0

VALID_MODES = frozenset({"los", "reflector", "nlos", "outage"})


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    #: Decision ticks in one session (fixed, so a session's simulated
    #: results never depend on host speed).
    ticks: int
    users: int
    #: Independent stretches of play in one session: each starts every
    #: headset on a fresh motion trace and the decision system on fresh
    #: link state, so one session samples several room configurations
    #: instead of one.
    segments: int


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "roomscale",
            ticks=1350,
            users=1,
            segments=15,
        ),
        WorkloadSpec(
            "seated",
            ticks=2700,
            users=1,
            segments=12,
        ),
        WorkloadSpec(
            "crowd",
            ticks=300,
            users=CROWD_USERS,
            segments=60,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Episode:
    """One blockage episode; its occluders stay put for its duration."""

    start_s: float
    end_s: float
    occluders: Tuple[Occluder, ...]


@dataclass
class SessionInputs:
    """Everything one session feeds the simulator, generated up front."""

    workload: str
    seed: int
    #: ``poses[k]`` holds one pose per headset for tick ``k``.
    poses: List[Tuple[PoseSample, ...]]
    #: ``occluders[k]``: shared extra occluders (blockage episodes)
    #: active at tick ``k``.
    occluders: List[Tuple[Occluder, ...]]
    #: The ticks at which a segment starts (tick 0 included).
    segment_starts: FrozenSet[int]

    @property
    def ticks(self) -> int:
        return len(self.poses)

    @property
    def users(self) -> int:
        return len(self.poses[0])


def _episodes(
    duration_s: float,
    trace: Sequence[PoseSample],
    ap_position: Vec2,
    rng: np.random.Generator,
) -> List[Episode]:
    """Poisson hand/head/body episodes anchored at the headset pose at
    each episode's start."""
    episodes: List[Episode] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / EPISODE_RATE_HZ))
        if t >= duration_s:
            break
        length = float(rng.uniform(*EPISODE_DURATION_S))
        scenario = BLOCKING_SCENARIOS[int(rng.integers(len(BLOCKING_SCENARIOS)))]
        anchor = trace[min(int(t * TICK_HZ), len(trace) - 1)].position
        if scenario is BlockageScenario.HAND:
            reach = float(rng.uniform(0.2, 0.35))
            occ: Tuple[Occluder, ...] = (
                hand_occluder(anchor, bearing_deg(anchor, ap_position), reach_m=reach),
            )
        elif scenario is BlockageScenario.HEAD:
            occ = (self_head_blocking(anchor, ap_position),)
        else:
            fraction = float(rng.uniform(0.3, 0.7))
            occ = tuple(person_blocking_path(ap_position, anchor, fraction).occluders())
        episodes.append(Episode(t, t + length, occ))
    return episodes


def _active_occluders(episodes: Sequence[Episode], t: float) -> Tuple[Occluder, ...]:
    active: List[Occluder] = []
    for episode in episodes:
        if episode.start_s <= t <= episode.end_s:
            active.extend(episode.occluders)
    return tuple(active)


def make_inputs(workload: str, seed: int) -> SessionInputs:
    """The seeded inputs of one session of ``workload``; the same
    ``(workload, seed)`` always yields the same inputs."""
    spec = WORKLOADS[workload]
    n = spec.ticks
    duration_s = n * TICK_S
    streams = np.random.SeedSequence([seed, sorted(WORKLOADS).index(workload)])
    seat_rng, episode_rng, *motion_rngs = [
        np.random.default_rng(s) for s in streams.spawn(2 + spec.users * spec.segments)
    ]
    bed = default_testbed(TESTBED_SEED, shadowing_sigma_db=0.0, calibrate_gains=False)
    bed.rng = seat_rng
    room, ap_position = bed.room, bed.ap.position
    bounds = [n * i // spec.segments for i in range(spec.segments + 1)]
    traces: List[List[PoseSample]] = [[] for _ in range(spec.users)]
    for segment in range(spec.segments):
        length = bounds[segment + 1] - bounds[segment]
        if workload == "roomscale":
            motions = [VrPlayerMotion(room, seed=motion_rngs[segment])]
        elif workload == "seated":
            seat = bed.random_headset().position
            motions = [
                VrPlayerMotion(
                    room, play_center=seat, walk_speed_m_s=0.0, seed=motion_rngs[segment]
                )
            ]
        else:
            motions = [
                VrPlayerMotion(room, seed=motion_rngs[segment * spec.users + user])
                for user in range(spec.users)
            ]
        # Every trace starts at its play-area centre: drop a warm-up
        # walk so that segments start at spread-out positions.
        skip = 0 if workload == "seated" else round(WARMUP_S * TICK_HZ)
        for user, motion in enumerate(motions):
            samples = motion.generate(
                (skip + length) * TICK_S, sample_rate_hz=TICK_HZ
            ).samples
            traces[user].extend(samples[skip : skip + length])
    episodes = (
        [] if spec.users > 1 else _episodes(duration_s, traces[0], ap_position, episode_rng)
    )
    poses = [tuple(trace[k] for trace in traces) for k in range(n)]
    occluders = [_active_occluders(episodes, k * TICK_S) for k in range(n)]
    return SessionInputs(workload, seed, poses, occluders, frozenset(bounds[:-1]))


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------


def check_decision(mode: str, snr_db: float) -> Optional[str]:
    """Why a decision is invalid, or ``None`` when it is valid."""
    if mode not in VALID_MODES:
        return f"unknown mode {mode!r}"
    if mode != "outage" and not math.isfinite(snr_db):
        return f"non-finite SNR {snr_db!r} on mode {mode!r}"
    return None


@dataclass
class SessionResult:
    """Timings and simulated outcomes of one session."""

    #: Set-up and per-tick times in reference-host seconds; the ticks
    #: also as measured on the wall clock.
    setup_s: float
    tick_s: List[float] = field(default_factory=list)
    tick_wall_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    frames: int = 0
    frames_lost: int = 0
    rate_sum_mbps: float = 0.0
    digest: str = ""
    #: The telemetry scope the ticks recorded into.
    scope: Optional[telemetry.TelemetryScope] = None

    @property
    def sim_frame_loss_frac(self) -> float:
        return self.frames_lost / self.frames if self.frames else 0.0

    @property
    def sim_rate_mean_mbps(self) -> float:
        return self.rate_sum_mbps / self.frames if self.frames else 0.0

    def outcome(self) -> Tuple[str, float, float, int]:
        """What must repeat exactly for one seed: decision digest and
        the two simulated QoE metrics (plus the failure count)."""
        return (
            self.digest,
            self.sim_frame_loss_frac,
            self.sim_rate_mean_mbps,
            self.failed,
        )


def _digest_update(h, mode: str, via: Optional[str], snr_db: float) -> None:
    h.update(repr((mode, via, round(snr_db, 9))).encode())


def build(inputs: SessionInputs) -> Tuple[object, Optional[RateAdapter]]:
    """Set-up of one session: testbed build, gain calibration and the
    decision system (``MoVRSystem`` + ``RateAdapter``, or
    ``MultiUserSystem`` for several headsets)."""
    bed = default_testbed(TESTBED_SEED, shadowing_sigma_db=0.0)
    if inputs.users == 1:
        return bed.system, RateAdapter()
    return MultiUserSystem(bed.system, num_users=inputs.users), None


def run_session(
    inputs: SessionInputs,
    speed: HostSpeed,
    trace: Optional[LayerTrace] = None,
) -> SessionResult:
    """Build a fresh system, then drive every tick of ``inputs``.

    Set-up is timed separately from the ticks; every time is recorded
    in reference-host seconds by ``speed`` (see :mod:`hostspeed`), the
    ticks also in wall seconds.  ``trace`` (the traced run's layer
    wrappers) is installed around the ticks and records only inside
    each tick's timed region.  A tick that raises or returns an invalid
    decision is counted as failed and the session goes on.
    """
    scale = speed.factor()
    start = time.perf_counter()
    system, adapter = build(inputs)
    result = SessionResult(setup_s=(time.perf_counter() - start) * scale)
    # Headset radios carry beam-steering state, so each session gets
    # its own, built before the first tick.
    radios = [
        Radio(p[0].position, boresight_deg=p[0].yaw_deg, config=HEADSET_RADIO_CONFIG, name="headset")
        for p in inputs.poses
    ] if adapter is not None else []
    # A fresh telemetry scope per session, opened after set-up: its
    # counters cover exactly the ticks, and series and histograms do
    # not grow across sessions.
    with telemetry.scope(f"tickbench.{inputs.workload}") as result.scope:
        with trace if trace is not None else contextlib.nullcontext():
            _drive(inputs, system, adapter, radios, result, speed, trace)
    return result


class _NoTrace:
    armed = False


def _drive(inputs, system, adapter, radios, result, speed, trace) -> None:
    clock = time.perf_counter
    gate = trace if trace is not None else _NoTrace()
    single = adapter is not None
    traffic = DEFAULT_TRAFFIC
    h = hashlib.sha256()
    for k, (poses, extra) in enumerate(zip(inputs.poses, inputs.occluders)):
        t_s = k * TICK_S
        if k in inputs.segment_starts:
            # A new segment is a fresh session for the decision system:
            # no serving-path or rate-dwell memory of the headsets' last
            # positions.  Not timed.
            system.reset_link_state()
            if single:
                adapter.reset()
        result.attempted += 1
        scale = speed.factor()
        problem: Optional[str] = None
        try:
            if single:
                gate.armed = True
                t0 = clock()
                decision = system.decide(radios[k], extra_occluders=extra, t_s=t_s)
                adapter.observe(decision.snr_db, t_s=t_s)
                t1 = clock()
                gate.armed = False
                problem = check_decision(decision.mode, decision.snr_db)
                _digest_update(h, decision.mode, decision.via, decision.snr_db)
                rate = adapter.current_rate_mbps
                lost = int(traffic.frame_airtime_s(rate) > traffic.frame_deadline_s)
                rates = [rate]
            else:
                gate.armed = True
                t0 = clock()
                tick = system.step(t_s, poses, extra_occluders=extra)
                t1 = clock()
                gate.armed = False
                if len(tick.decisions) != inputs.users:
                    problem = f"{len(tick.decisions)} decisions for {inputs.users} users"
                for d in tick.decisions:
                    problem = problem or check_decision(d.mode, d.snr_db)
                    _digest_update(h, d.mode, d.via, d.snr_db)
                lost = tick.window.frames_lost
                rates = [a.current_rate_mbps for a in system.adapters]
        except Exception as exc:  # noqa: BLE001 - a raising tick is a failed tick
            gate.armed = False
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            result.failed += 1
            result.failures.append(f"tick {k}: {problem}")
            _digest_update(h, "failed", None, math.nan)
            continue
        result.tick_s.append((t1 - t0) * scale)
        result.tick_wall_s.append(t1 - t0)
        result.frames += len(rates)
        result.frames_lost += lost
        result.rate_sum_mbps += sum(rates)
    result.digest = h.hexdigest()

"""The one decision engine behind ``MoVRSystem.decide`` (one headset)
and ``MultiUserSystem.step`` (N headsets).

Pins its decisions with digests over a pose x blockage grid and a
scripted multi-user session (shadowing off), checks that an N=1 step
equals ``decide``, that relay evaluation never re-steers a reflector,
that bad poses fail at the entry points, and that both entry points
give the same events and link-state series.
"""

import hashlib
import math

import pytest

from repro import telemetry
from repro.core.multiuser import MultiUserSystem
from repro.experiments import run_multi_user
from repro.experiments.testbed import default_testbed
from repro.geometry.bodies import hand_occluder, person_blocking_path, self_head_blocking
from repro.geometry.mobility import PoseSample
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio
from repro.telemetry.slo import evaluate_scope

SPOTS = tuple(Vec2(x, y) for x in (1.0, 2.0, 3.0, 4.2) for y in (1.2, 2.5, 4.0))
YAWS = (-135.0, 45.0)
BLOCKAGES = ("none", "hand", "head", "body")
GRID = [(spot, yaw, kind) for spot in SPOTS for yaw in YAWS for kind in BLOCKAGES]

#: Spots with a clear line of sight to the AP (multi-user sessions).
CLEAR = (Vec2(3.0, 4.0), Vec2(4.0, 3.0), Vec2(2.5, 3.5), Vec2(3.5, 2.5))

FRAME_DT_S = 1.0 / 90.0

#: Digests of ``(mode, via, round(snr_db, 9))`` over every decision.
#: Any change to a decision changes them; update them only together
#: with the reason in CHANGES.md.  No grid case reaches the
#: single-headset fallback (the one policy change when ``decide``
#: became the N=1 joint decision), so both hold the values the two
#: separate code paths produced before the merge.
DECIDE_GRID_DIGEST = "aba5a8cedca56726f6a30604734cf614b29f095d2e3beb779354fb74bd717c48"
STEP_SCRIPT_DIGEST = "142e829ccdc046e5cd272533c98971bf5ff8f99c8d239f13fe1eb92bcef064dd"


def make_bed(num_reflectors=2):
    return default_testbed(seed=3, num_reflectors=num_reflectors, shadowing_sigma_db=0.0)


def headset(spot, yaw):
    return Radio(spot, boresight_deg=yaw, config=HEADSET_RADIO_CONFIG, name="headset")


def blockers(kind, ap, spot):
    if kind == "hand":
        return [hand_occluder(spot, bearing_deg(spot, ap))]
    if kind == "head":
        return [self_head_blocking(spot, ap)]
    if kind == "body":
        return person_blocking_path(ap, spot, 0.5).occluders()
    return []


def key(decision):
    return (decision.mode, decision.via, round(decision.snr_db, 9))


def digest(decisions):
    h = hashlib.sha256()
    for decision in decisions:
        h.update(repr(key(decision)).encode())
    return h.hexdigest()


def crossing_people(ap, spots):
    occluders = []
    for spot in spots:
        occluders.extend(person_blocking_path(ap, spot, 0.5).occluders())
    return occluders


def scripted_ticks():
    """2-, 3- and 4-user sessions through clear, crossed, mutually
    blocked and hand-blocked instants (with reflector contention)."""
    for users, reflectors in ((2, 1), (3, 2), (4, 2)):
        bed = make_bed(reflectors)
        multi = MultiUserSystem(bed.system, num_users=users)
        ap = bed.ap.position
        spots = list(CLEAR[:users])
        poses = [PoseSample(0.0, spot, -135.0) for spot in spots]
        # User 1 steps onto user 0's line to the AP.
        in_the_way = PoseSample(0.0, ap + (spots[0] - ap) * 0.5, -135.0)
        script = [
            (poses, []),
            (poses, crossing_people(ap, spots)),
            (poses, crossing_people(ap, spots[:1])),
            ([poses[0], in_the_way] + poses[2:], []),
            (poses, [hand_occluder(s, bearing_deg(s, ap)) for s in spots]),
            (poses, []),
        ]
        for k, (tick_poses, extra) in enumerate(script):
            yield multi.step(k * FRAME_DT_S, tick_poses, extra_occluders=extra)


@pytest.fixture(scope="module")
def bed():
    return make_bed()


class TestPinnedDecisions:
    def test_decide_grid_digest(self, bed):
        decisions = [
            bed.system.decide(headset(spot, yaw), blockers(kind, bed.ap.position, spot))
            for spot, yaw, kind in GRID
        ]
        assert digest(decisions) == DECIDE_GRID_DIGEST

    def test_scripted_multi_user_digest(self):
        ticks = list(scripted_ticks())
        assert any(d.contended for tick in ticks for d in tick.decisions)
        assert digest(d for tick in ticks for d in tick.decisions) == STEP_SCRIPT_DIGEST

    @pytest.mark.parametrize("kind", BLOCKAGES)
    def test_single_user_step_equals_decide(self, bed, kind):
        multi = MultiUserSystem(bed.system, num_users=1)
        for spot, yaw in ((spot, yaw) for spot in SPOTS for yaw in YAWS):
            occluders = blockers(kind, bed.ap.position, spot)
            alone = bed.system.decide(headset(spot, yaw), occluders)
            (joint,) = multi.step(0.0, [PoseSample(0.0, spot, yaw)], occluders).decisions
            assert key(joint) == key(alone), (spot, yaw, kind)
            assert joint.direct_snr_db == alone.direct_snr_db

    def test_single_user_fallback_is_the_better_of_nlos_and_direct(self):
        # Every reflector's control plane is down, so a blocked headset
        # can only fall back.  The one policy serves it on the better
        # of Opt-NLOS and the weak direct path (a single headset used
        # to keep the weak direct path alone).
        bed = make_bed()
        system = bed.system
        for reflector in system.reflectors:
            system.mark_control_lost(reflector.name)
        spot = Vec2(3.0, 4.0)
        radio = headset(spot, -135.0)
        occluders = blockers("body", bed.ap.position, spot)
        decision = system.decide(radio, occluders)
        nlos = system.nlos.evaluate(system.ap, radio, occluders).snr_db
        direct = system.direct_link(radio, occluders).snr_db
        assert direct < system.handoff_snr_db
        assert decision.snr_db == max(nlos, direct)
        assert decision.mode == ("nlos" if nlos >= direct else "los")
        assert decision.via is None and not decision.contended


class TestPureRelayEvaluation:
    def test_evaluating_relays_leaves_reflectors_alone(self, bed):
        system = bed.system
        before = [r.state() for r in system.reflectors]
        for spot, yaw, kind in GRID[::5]:
            radio = headset(spot, yaw)
            occluders = blockers(kind, bed.ap.position, spot)
            system.best_relay(radio, occluders)
            system.relay_candidates(radio, occluders)
            for reflector in system.reflectors:
                system.relay_link(reflector, radio, occluders)
        assert [r.state() for r in system.reflectors] == before

    def test_only_the_committed_reflector_is_steered(self):
        bed = make_bed()
        system = bed.system
        spot = Vec2(3.0, 4.0)
        radio = headset(spot, -135.0)
        idle = [r.state() for r in system.reflectors]
        decision = system.decide(radio, blockers("body", bed.ap.position, spot))
        assert decision.mode == "reflector"
        for reflector, state in zip(system.reflectors, idle):
            if reflector.name == decision.via:
                assert reflector.beams == reflector.aim(system.ap.position, spot)
            else:
                assert reflector.state() == state

    def test_explicit_steering_evaluates_the_given_beams(self, bed):
        system = bed.system
        reflector = system.reflectors[0]
        radio = headset(Vec2(3.0, 4.0), -135.0)
        aimed = reflector.aim(system.ap.position, radio.position)
        assert system.relay_link(reflector, radio, steering=aimed) == system.relay_link(
            reflector, radio
        )
        off_target = (aimed[0], aimed[1] + 30.0)
        assert (
            system.relay_link(reflector, radio, steering=off_target).end_to_end_snr_db
            < system.relay_link(reflector, radio).end_to_end_snr_db
        )


BAD_POSES = {
    "nan-position": (Vec2(math.nan, 2.0), -135.0, "x position must be finite"),
    "infinite-yaw": (Vec2(2.0, 2.0), math.inf, "yaw must be finite"),
    "on-the-ap": (Vec2(0.3, 0.3), -135.0, "closer than 0.05 m to the AP"),
    "outside-the-room": (Vec2(50.0, 50.0), -135.0, "outside the room"),
}


@pytest.mark.parametrize("case", sorted(BAD_POSES))
@pytest.mark.parametrize("entry", ["decide", "step"])
def test_bad_pose_fails_at_the_entry_point(bed, case, entry):
    position, yaw, message = BAD_POSES[case]
    if entry == "decide":
        with pytest.raises(ValueError, match=f"^headset_radio .*{message}"):
            bed.system.decide(headset(position, yaw))
    else:
        multi = MultiUserSystem(bed.system, num_users=2)
        poses = [PoseSample(0.0, CLEAR[0], -135.0), PoseSample(0.0, position, yaw)]
        with pytest.raises(ValueError, match=rf"^poses\[1\] .*{message}"):
            multi.step(0.0, poses)


class TestObservabilityParity:
    """A single headset gets the same events and link-state series
    whether it is decided alone or as an N=1 joint decision."""

    @staticmethod
    def _session(make_decider):
        """Clear, hand-blocked (handoff), clear again, then blocked
        while every reflector's control plane is down (degraded
        fallback), then clear."""
        bed = make_bed()
        system = bed.system
        decide_at = make_decider(system)
        spot = Vec2(3.0, 4.0)
        hand = [hand_occluder(spot, bearing_deg(spot, bed.ap.position))]
        script = [[], hand, hand, [], [], hand, hand, []]
        with telemetry.scope("parity") as sc:
            for k, occluders in enumerate(script):
                if k == 4:
                    for reflector in system.reflectors:
                        system.mark_control_lost(reflector.name, t_s=k * FRAME_DT_S)
                decide_at(PoseSample(k * FRAME_DT_S, spot, -135.0), occluders)
        return sc

    @staticmethod
    def _alone(system):
        def decide_at(pose, occluders):
            radio = headset(pose.position, pose.yaw_deg)
            system.decide(radio, occluders, t_s=pose.time_s)

        return decide_at

    @staticmethod
    def _joint(system):
        multi = MultiUserSystem(system, num_users=1)
        return lambda pose, occluders: multi.step(pose.time_s, [pose], occluders)

    @staticmethod
    def _link_series(sc, prefix):
        return {
            name[len(prefix):]: sc.registry.get_series(name).points()
            for name in sc.registry.series_names()
            if name.startswith(prefix) and not name.startswith(prefix + "rate.")
        }

    def test_same_events_and_series(self):
        alone_scope = self._session(self._alone)
        joint_scope = self._session(self._joint)
        alone = alone_scope.events
        # The N=1 step also adapts the rate; decide() leaves that to
        # the caller.
        joint = [
            e
            for e in joint_scope.events
            if e.kind is not telemetry.EventKind.RATE_CHANGE
        ]
        kinds = [e.kind for e in alone]
        assert [e.kind for e in joint] == kinds
        for kind in (
            telemetry.EventKind.BLOCKAGE_DETECTED,
            telemetry.EventKind.BLOCKAGE_CLEARED,
            telemetry.EventKind.HANDOFF,
            telemetry.EventKind.DEGRADED_SERVING,
        ):
            assert kind in kinds
        for a, j in zip(alone, joint):
            assert (j.t_s, j.fields) == (a.t_s, dict(a.fields, user=0))
        series = self._link_series(alone_scope, "link.")
        assert "handoff_gap_ms" in series
        assert self._link_series(joint_scope, "user0.") == series


def test_multi_user_run_has_handoff_gap_objective():
    with telemetry.scope("ext-multi-user") as sc:
        run_multi_user(seed=11, user_counts=(3,), duration_s=0.5)
        results = evaluate_scope(sc, emit=False)
    gaps = [r for r in results if r.spec.name.endswith("handoff-gap-p99")]
    assert gaps and all(r.samples > 0 for r in gaps)

"""The MoVR system controller: blockage detection and reflector handoff.

Ties everything together (Fig. 5 of the paper): the AP serves the headset
over the direct path while it is healthy; when blockage drops the
direct SNR below the handoff threshold, the AP steers onto the best
calibrated reflector, which amplifies-and-forwards to the headset.
The controller owns calibration (gain control per reflector, beam
angles from the backscatter search or from VR tracking geometry) and
the one serving-decision engine: :meth:`MoVRSystem.decide_joint`
decides for any number of headsets, :meth:`MoVRSystem.decide` is its
single-headset call, and :class:`repro.core.multiuser.MultiUserSystem`
its N-headset one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.baselines.nlos_relay import OptNlosBaseline
from repro.telemetry.slo import SERVING_MODE_CODES
from repro.core.gain_control import CurrentSensingGainController, GainControlResult
from repro.core.reflector import MoVRReflector
from repro.geometry.raytrace import MIN_SEPARATION_M, RayTracer
from repro.geometry.room import Occluder, Room
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkBudget, LinkMeasurement
from repro.link.radios import Radio
from repro.phy.channel import MmWaveChannel
from repro.phy.noise import relay_path_snr_db
from repro.rate.mcs import data_rate_mbps_for_snr
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import require_finite

#: Cadence of the QoE time-series sampler: each decision offers link
#: state (SNR, rate, mode, amplifier gain) to the active scope's series
#: at most this often in simulation time.
SAMPLE_PERIOD_S = 0.005


@dataclass(frozen=True)
class RelayMeasurement:
    """Link budget of an AP -> reflector -> headset relay path."""

    reflector_name: str
    amp_input_dbm: float
    amp_output_dbm: float
    received_power_dbm: float
    first_hop_snr_db: float
    second_hop_snr_db: float
    end_to_end_snr_db: float
    stable: bool


@dataclass(frozen=True)
class LinkDecision:
    """One headset's serving decision for one instant."""

    #: ``los`` | ``reflector`` | ``nlos`` (fallback onto the best
    #: environmental reflection) | ``outage``.
    mode: str
    snr_db: float
    rate_mbps: float
    via: Optional[str] = None
    direct_snr_db: float = -math.inf
    #: The headset's index in its joint decision (0 for one headset).
    user: int = 0
    #: True when this user wanted a reflector but lost it to a
    #: higher-priority user this instant.
    contended: bool = False

    @property
    def connected(self) -> bool:
        return self.mode != "outage"


class MoVRSystem:
    """One room with an AP, a headset link target, and MoVR reflectors."""

    def __init__(
        self,
        room: Room,
        ap: Radio,
        reflectors: Sequence[MoVRReflector],
        channel: Optional[MmWaveChannel] = None,
        handoff_snr_db: float = 13.0,
        elevated_mounting: bool = True,
        rng: RngLike = None,
    ) -> None:
        require_finite(handoff_snr_db, "handoff_snr_db")
        self.room = room
        self.ap = ap
        self.reflectors = list(reflectors)
        self.channel = channel if channel is not None else MmWaveChannel()
        self.tracer = RayTracer(room)
        self.budget = LinkBudget(self.tracer, self.channel)
        self.nlos = OptNlosBaseline(self.budget)
        self.handoff_snr_db = handoff_snr_db
        #: Reflectors stick to walls above head height and the AP sits
        #: on a shelf (Fig. 5 of the paper shows both elevated), so the
        #: AP-to-reflector feed clears people and furniture, and the
        #: descending reflector-to-headset hop is only obstructed by
        #: things carried at the headset itself (a raised hand, the
        #: player's own head).  This corrects the 2-D floor plan's lack
        #: of elevation; disable to study floor-level mounting.
        self.elevated_mounting = elevated_mounting
        self._rng = make_rng(rng)
        self._gain_results: Dict[str, GainControlResult] = {}
        # Reflectors whose BLE control plane is currently down: the AP
        # cannot push beam updates to them, so they are excluded from
        # handoff until the coordinator reports recovery.
        self._control_down: Dict[str, Optional[float]] = {}
        # Counts degraded episodes (control lost while none was down),
        # so each link tracker flags every episode once.
        self._degraded_episodes = 0
        self._link = LinkStateTracker(prefix="link.")

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def calibrate_reflector_gains(self) -> Dict[str, GainControlResult]:
        """Run the current-sensing gain controller on every reflector.

        Each reflector first aims its receive beam at the AP (the
        incidence angle is "measured once at installation"); the gain
        knee is then found at the installed beam geometry.
        """
        results: Dict[str, GainControlResult] = {}
        with telemetry.span("controller.calibrate", reflectors=len(self.reflectors)):
            for reflector in self.reflectors:
                reflector.set_beams(
                    bearing_deg(reflector.position, self.ap.position),
                    reflector.tx_azimuth_deg,
                )
                input_dbm = self._amp_input_dbm(reflector, extra_occluders=())
                controller = CurrentSensingGainController(reflector, rng=self._rng)
                results[reflector.name] = controller.calibrate(input_dbm)
        self._gain_results = results
        return results

    @property
    def gain_results(self) -> Dict[str, GainControlResult]:
        return dict(self._gain_results)

    # ------------------------------------------------------------------
    # Link evaluation (pure: no reflector is re-steered)
    # ------------------------------------------------------------------

    def direct_link(
        self,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
    ) -> LinkMeasurement:
        """The direct AP <-> headset link, both beams on the LOS path."""
        los = self.budget.cache.line_of_sight(
            self.ap.position, headset_radio.position, extra_occluders
        )
        return self.budget.measure_aligned(
            self.ap, headset_radio, los, extra_occluders=extra_occluders
        )

    def _headset_local_occluders(
        self,
        headset_position: Vec2,
        extra_occluders: Sequence[Occluder],
        radius_m: float = 0.6,
    ) -> Sequence[Occluder]:
        """Occluders attached to the player (hand, own head).

        With elevated mounting, the descending reflector-to-headset hop
        only intersects obstacles in the headset's immediate vicinity.
        """
        local = []
        for occ in extra_occluders:
            center = occ.center
            if center.distance_to(headset_position) <= radius_m:
                local.append(occ)
        return local

    def _amp_input_dbm(
        self,
        reflector: MoVRReflector,
        extra_occluders: Sequence[Occluder],
        rx_beam_deg: Optional[float] = None,
    ) -> float:
        """Signal power at the reflector's amplifier input port, with
        the receive beam at ``rx_beam_deg`` (default: where it is)."""
        if self.elevated_mounting:
            feed = self.budget.cache.line_of_sight(
                self.ap.position,
                reflector.position,
                (),
                include_room_occluders=False,
            )
        else:
            feed = self.budget.cache.line_of_sight(
                self.ap.position, reflector.position, extra_occluders
            )
        ap_steer = bearing_deg(self.ap.position, reflector.position)
        ap_gain = self.ap.tx_gain_dbi(feed.departure_angle_deg, steer_override_deg=ap_steer)
        rx_gain = reflector.rx_array.gain_dbi(
            feed.arrival_angle_deg, steer_override_deg=rx_beam_deg
        )
        return (
            self.ap.config.tx_power_dbm
            + ap_gain
            + self.channel.path_gain_db(feed)
            + rx_gain
        )

    def relay_link(
        self,
        reflector: MoVRReflector,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
        steering: Optional[Tuple[float, float]] = None,
    ) -> RelayMeasurement:
        """Full amplify-and-forward budget through one reflector.

        Evaluates the reflector with its (rx, tx) beams at ``steering``
        — by default aimed at the AP and the headset, the angles MoVR
        gets from calibration plus VR tracking; pass
        ``reflector.beams`` to keep the beams it holds (beam-sweep
        studies).  Accounts for amplifier noise, saturation, and the
        harmonic SNR combination inherent to analog relays.  The
        reflector itself is never re-steered.
        """
        if steering is None:
            steering = reflector.aim(self.ap.position, headset_radio.position)
        rx_beam, tx_beam = steering
        amp_input = self._amp_input_dbm(reflector, extra_occluders, rx_beam)
        first_hop_snr = amp_input - reflector.front_end_noise.noise_floor_dbm
        amp_output = reflector.output_power_dbm(amp_input, steering)
        stable = reflector.is_stable(steering)
        if self.elevated_mounting:
            out_path = self.budget.cache.line_of_sight(
                reflector.position,
                headset_radio.position,
                self._headset_local_occluders(
                    headset_radio.position, extra_occluders
                ),
                include_room_occluders=False,
            )
        else:
            out_path = self.budget.cache.line_of_sight(
                reflector.position, headset_radio.position, extra_occluders
            )
        tx_gain = reflector.tx_array.gain_dbi(
            out_path.departure_angle_deg, steer_override_deg=tx_beam
        )
        hs_steer = bearing_deg(headset_radio.position, reflector.position)
        hs_gain = headset_radio.rx_gain_dbi(
            out_path.arrival_angle_deg, steer_override_deg=hs_steer
        )
        received = (
            amp_output
            + tx_gain
            + self.channel.path_gain_db(out_path)
            + hs_gain
            - self.ap.config.implementation_loss_db
        )
        second_hop_snr = received - headset_radio.config.noise_floor_dbm
        if not stable:
            end_to_end = -math.inf  # oscillating amplifier: garbage out
        else:
            end_to_end = relay_path_snr_db(first_hop_snr, second_hop_snr)
        return RelayMeasurement(
            reflector_name=reflector.name,
            amp_input_dbm=amp_input,
            amp_output_dbm=amp_output,
            received_power_dbm=received,
            first_hop_snr_db=first_hop_snr,
            second_hop_snr_db=second_hop_snr,
            end_to_end_snr_db=end_to_end,
            stable=stable,
        )

    def relay_candidates(
        self,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[RelayMeasurement]:
        """Every usable reflector's relay budget, best SNR first (ties
        by reflector name).

        Reflectors whose control plane is down are not candidates: the
        AP cannot steer them, so handing off to one would serve the
        headset with stale beams.  They rejoin automatically when
        :meth:`mark_control_recovered` is called.
        """
        candidates = [
            self.relay_link(r, headset_radio, extra_occluders)
            for r in self.reflectors
            if r.name not in self._control_down
            and r.can_serve(self.ap.position, headset_radio.position)
        ]
        candidates.sort(key=lambda m: (-m.end_to_end_snr_db, m.reflector_name))
        return candidates

    def best_relay(
        self,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
    ) -> Optional[RelayMeasurement]:
        """The serving reflector candidate with the highest SNR."""
        candidates = self.relay_candidates(headset_radio, extra_occluders)
        return candidates[0] if candidates else None

    # ------------------------------------------------------------------
    # Control-plane availability (graceful degradation)
    # ------------------------------------------------------------------

    @property
    def control_down(self) -> frozenset:
        """Names of reflectors currently excluded from handoff."""
        return frozenset(self._control_down)

    def mark_control_lost(self, reflector_name: str, t_s: Optional[float] = None) -> None:
        """Exclude a reflector from handoff: its control plane is dark.

        Idempotent; unknown names are rejected.  The ``control_lost``
        event itself is emitted by the coordinator that detected the
        loss — this is the data-plane reaction.
        """
        self._reflector(reflector_name)
        if reflector_name in self._control_down:
            return
        if not self._control_down:
            self._degraded_episodes += 1
        self._control_down[reflector_name] = t_s
        telemetry.inc("controller.control_lost")

    def mark_control_recovered(
        self, reflector_name: str, t_s: Optional[float] = None
    ) -> None:
        """Re-admit a reflector whose control plane recovered."""
        self._reflector(reflector_name)
        if reflector_name not in self._control_down:
            return
        del self._control_down[reflector_name]
        telemetry.inc("controller.control_recovered")

    def _reflector(self, reflector_name: str) -> MoVRReflector:
        for reflector in self.reflectors:
            if reflector.name == reflector_name:
                return reflector
        known = ", ".join(r.name for r in self.reflectors)
        raise ValueError(f"unknown reflector {reflector_name!r}; known: {known}")

    # ------------------------------------------------------------------
    # The decision engine
    # ------------------------------------------------------------------

    def check_headset(self, position: Vec2, yaw_deg: float, name: str) -> None:
        """Reject a headset pose the link models cannot evaluate.

        Raises ``ValueError`` naming the argument (``name``) when the
        pose is not finite, lies outside the room, or sits within the
        far-field limit of the AP or a reflector.
        """
        require_finite(position.x, f"{name} x position")
        require_finite(position.y, f"{name} y position")
        require_finite(yaw_deg, f"{name} yaw")
        if not self.room.contains(position):
            box = self.room.bounding_box()
            raise ValueError(
                f"{name} at ({position.x:g}, {position.y:g}) is outside the "
                f"room ({box.min_corner.x:g}..{box.max_corner.x:g} x "
                f"{box.min_corner.y:g}..{box.max_corner.y:g} m)"
            )
        for node in [self.ap, *self.reflectors]:
            if position.distance_to(node.position) < MIN_SEPARATION_M:
                what = "the AP" if node is self.ap else f"reflector {node.name!r}"
                raise ValueError(
                    f"{name} at ({position.x:g}, {position.y:g}) is closer than "
                    f"{MIN_SEPARATION_M} m to {what}"
                )

    def decide(
        self,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
        t_s: Optional[float] = None,
    ) -> LinkDecision:
        """Pick the serving path for the current instant: the joint
        decision of :meth:`decide_joint` for one headset.

        ``t_s`` (the caller's clock, e.g. simulation time) stamps the
        control-plane events this decision may emit — blockage
        detected/cleared, handoff, outage begin/end — and the
        ``link.*`` QoE series.
        """
        started = time.perf_counter()
        self.check_headset(
            headset_radio.position, headset_radio.boresight_deg, "headset_radio"
        )
        (decision,) = self.decide_joint([headset_radio], [extra_occluders], t_s)
        telemetry.inc("controller.decisions")
        telemetry.observe(
            "controller.decide_ms", (time.perf_counter() - started) * 1000.0
        )
        self._link.record(self, decision, t_s)
        return decision

    def decide_joint(
        self,
        headset_radios: Sequence[Radio],
        occluder_sets: Sequence[Sequence[Occluder]],
        t_s: Optional[float] = None,
    ) -> Tuple[LinkDecision, ...]:
        """Every headset's serving path for one instant.

        Healthy direct links are preferred (they need no relay
        resources).  Blocked users bid for every usable reflector that
        improves on their blocked direct path, and the arbiter
        processes bidders best-bid-first (ties toward the lower user
        index), awarding each their best still-unclaimed reflector — a
        reflector steers at exactly one headset.  Only awarded
        reflectors are re-steered.  Everyone else falls back to the
        better of Opt-NLOS and the weak direct path; a bidder whose
        every wanted reflector was claimed emits a ``contention``
        event (blocked users no reflector could help fall back
        silently: coverage, not contention).

        ``occluder_sets[i]`` are the occluders in headset ``i``'s scene.
        The caller validates the poses (:meth:`check_headset`) and
        records the decisions (:class:`LinkStateTracker`).
        """
        decisions: List[Optional[LinkDecision]] = [None] * len(headset_radios)
        directs: List[float] = []
        bids: Dict[int, List[RelayMeasurement]] = {}
        for i, (radio, occluders) in enumerate(zip(headset_radios, occluder_sets)):
            direct = self.direct_link(radio, occluders).snr_db
            directs.append(direct)
            if direct >= self.handoff_snr_db:
                decisions[i] = LinkDecision(
                    mode="los",
                    snr_db=direct,
                    rate_mbps=data_rate_mbps_for_snr(direct),
                    direct_snr_db=direct,
                    user=i,
                )
            else:
                bids[i] = [
                    c
                    for c in self.relay_candidates(radio, occluders)
                    if math.isfinite(c.end_to_end_snr_db)
                    and c.end_to_end_snr_db > direct
                ]

        claimed: Dict[str, int] = {}
        order = sorted(
            (i for i in bids if bids[i]),
            key=lambda i: (-bids[i][0].end_to_end_snr_db, i),
        )
        for i in order:
            won = next((c for c in bids[i] if c.reflector_name not in claimed), None)
            if won is None:
                continue
            claimed[won.reflector_name] = i
            rate = data_rate_mbps_for_snr(won.end_to_end_snr_db)
            serving = rate > 0.0
            if serving:
                self._reflector(won.reflector_name).point_at(
                    self.ap.position, headset_radios[i].position
                )
            decisions[i] = LinkDecision(
                mode="reflector" if serving else "outage",
                snr_db=won.end_to_end_snr_db,
                rate_mbps=rate,
                via=won.reflector_name if serving else None,
                direct_snr_db=directs[i],
                user=i,
            )

        for i in bids:
            if decisions[i] is not None:
                continue
            contended = bool(bids[i])  # wanted reflectors, got none
            nlos = self.nlos.evaluate(self.ap, headset_radios[i], occluder_sets[i])
            snr = max(nlos.snr_db, directs[i])
            rate = data_rate_mbps_for_snr(snr)
            if rate <= 0.0:
                mode = "outage"
            else:
                mode = "nlos" if nlos.snr_db >= directs[i] else "los"
            decisions[i] = LinkDecision(
                mode=mode,
                snr_db=snr,
                rate_mbps=rate,
                direct_snr_db=directs[i],
                user=i,
                contended=contended,
            )
            if contended:
                wanted = bids[i][0]
                telemetry.inc("multiuser.contention")
                telemetry.emit(
                    telemetry.EventKind.CONTENTION,
                    t_s=t_s,
                    user=i,
                    reflector=wanted.reflector_name,
                    winner=claimed[wanted.reflector_name],
                    wanted_snr_db=wanted.end_to_end_snr_db,
                    fallback_snr_db=snr,
                    fallback_mode=mode,
                )
        return tuple(decisions)

    def reset_link_state(self) -> None:
        """Forget the previous decision (start of a fresh session).

        Without this, the first decision of a new session would be
        compared against the last decision of the previous one and
        could emit a spurious handoff/outage transition.
        Control-plane availability is infrastructure state and
        survives a session reset.
        """
        self._link.reset()


class LinkStateTracker:
    """One headset's link-state memory behind the event log and QoE
    series.

    :meth:`record` compares each decision with the previous one and
    emits the typed per-user events — blockage detected/cleared,
    degraded serving, handoff, outage begin/end — and samples the
    ``<prefix>*`` link series: ``mode_code``, ``rate_mbps``,
    ``snr_db``, ``direct_snr_db``, ``amp_gain_db`` and
    ``handoff_gap_ms``.  A HANDOFF means the relay resource changed
    (``via`` changed: reflector acquired, released or swapped);
    ``los`` <-> ``nlos`` moves re-steer the same AP<->headset radio
    pair, so they are not handoffs.  Entering or leaving an outage is
    an outage edge, not a handoff.

    ``user`` (if given) is stamped on every event.  The tracker keeps
    no reference to the system it records for (the system owns its
    tracker, and a back-reference would keep both alive until the
    cyclic garbage collector runs).
    """

    def __init__(self, prefix: str, user: Optional[int] = None) -> None:
        self.prefix = prefix
        self._fields = {} if user is None else {"user": user}
        self.reset()

    def reset(self) -> None:
        """Forget the previous decision (start of a fresh session)."""
        self._last_mode: Optional[str] = None
        self._last_via: Optional[str] = None
        self._blocked = False
        self._last_t: Optional[float] = None
        # The next degraded decision announces itself again.
        self._flagged_episode: Optional[int] = None

    def record(
        self, system: MoVRSystem, decision: LinkDecision, t_s: Optional[float]
    ) -> bool:
        """Log one decision ``system`` made; True when the serving path
        (mode or ``via``) differs from the previous decision, or there
        was none."""
        if t_s is not None:
            self._sample(system, decision, t_s)
        if (
            system._control_down
            and decision.connected
            and self._flagged_episode != system._degraded_episodes
        ):
            # Serving with a shrunken candidate set: flag it once per
            # degraded episode so reports show the exposure window.
            self._emit(
                telemetry.EventKind.DEGRADED_SERVING,
                t_s,
                down=sorted(system._control_down),
                mode=decision.mode,
                via=decision.via,
                snr_db=decision.snr_db,
            )
            self._flagged_episode = system._degraded_episodes
        blocked = decision.direct_snr_db < system.handoff_snr_db
        if blocked and not self._blocked:
            self._emit(
                telemetry.EventKind.BLOCKAGE_DETECTED,
                t_s,
                direct_snr_db=decision.direct_snr_db,
                threshold_db=system.handoff_snr_db,
            )
        elif not blocked and self._blocked:
            self._emit(
                telemetry.EventKind.BLOCKAGE_CLEARED,
                t_s,
                direct_snr_db=decision.direct_snr_db,
            )
        self._blocked = blocked
        changed = decision.mode != self._last_mode or decision.via != self._last_via
        if changed and self._last_mode is not None:
            self._emit_switch(decision, t_s)
        self._last_mode = decision.mode
        self._last_via = decision.via
        if t_s is not None:
            self._last_t = t_s
        return changed

    def _emit_switch(self, decision: LinkDecision, t_s: Optional[float]) -> None:
        last_mode = self._last_mode
        entering = decision.mode == "outage" and last_mode != "outage"
        leaving = last_mode == "outage" and decision.mode != "outage"
        if entering:
            self._emit(
                telemetry.EventKind.OUTAGE_BEGIN,
                t_s,
                from_mode=last_mode,
                snr_db=decision.snr_db,
            )
            return
        if not leaving and decision.via == self._last_via:
            return
        # The serving-path switch gap: time since the last decision on
        # the old path.  At the 90 Hz VR frame clock this is one frame
        # interval; a slower decision loop shows up directly in the
        # handoff-gap SLO.
        gap_field = {}
        if t_s is not None and self._last_t is not None and t_s >= self._last_t:
            gap_ms = (t_s - self._last_t) * 1000.0
            telemetry.sample(
                f"{self.prefix}handoff_gap_ms", t_s, gap_ms, min_interval_s=0.0
            )
            gap_field["gap_ms"] = gap_ms
        if leaving:
            self._emit(
                telemetry.EventKind.OUTAGE_END,
                t_s,
                to_mode=decision.mode,
                via=decision.via,
                snr_db=decision.snr_db,
            )
        else:
            self._emit(
                telemetry.EventKind.HANDOFF,
                t_s,
                from_mode=last_mode,
                from_via=self._last_via,
                to_mode=decision.mode,
                to_via=decision.via,
                snr_db=decision.snr_db,
                direct_snr_db=decision.direct_snr_db,
                **gap_field,
            )

    def _emit(self, kind, t_s: Optional[float], **fields) -> None:
        telemetry.emit(kind, t_s=t_s, **self._fields, **fields)

    def _sample(self, system: MoVRSystem, decision: LinkDecision, t_s: float) -> None:
        """Offer this instant's link state to the QoE time series.

        Dark-link SNRs are legitimately ``-inf`` and are skipped (the
        ``mode_code`` series carries the outage signal).
        """
        prefix = self.prefix
        values = [
            ("mode_code", SERVING_MODE_CODES[decision.mode]),
            ("rate_mbps", decision.rate_mbps),
            ("snr_db", decision.snr_db),
            ("direct_snr_db", decision.direct_snr_db),
        ]
        if decision.via is not None:
            reflector = system._reflector(decision.via)
            values.append(("amp_gain_db", reflector.amplifier.gain_db))
        for name, value in values:
            if math.isfinite(value):
                telemetry.sample(
                    prefix + name, t_s, value, min_interval_s=SAMPLE_PERIOD_S
                )

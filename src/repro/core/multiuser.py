"""Serving N headsets from one AP and a shared reflector fleet.

The paper serves exactly one headset, but its own blockage study (§3)
already features the killer multi-user scenario: "another person
walking between the AP and the headset".  With several players in one
room, three things a single headset never faces become the whole
problem:

* **Reflector contention** — a reflector is an analog
  amplify-and-forward device steered at exactly one headset, so two
  blocked players wanting the same wall reflector must be arbitrated.
  The decisions, arbitration included, come from the one decision
  engine (:meth:`repro.core.controller.MoVRSystem.decide_joint`).
* **Airtime sharing** — N video streams plus every user's beam-search
  probes share one TDD channel
  (:meth:`repro.control.scheduler.AirtimeScheduler.share_frame_window`),
  so frame loss becomes a function of N even when every link is
  healthy.
* **Mutual blockage** — each player's body
  (:class:`repro.geometry.bodies.PersonModel`) is an occluder in every
  *other* player's scene.  The per-user occluder sets flow through the
  shared :class:`repro.sim.SceneCache` unchanged: its value-based
  occluder signatures key each user's scene separately.

Per-headset link state and events come from one
:class:`repro.core.controller.LinkStateTracker` per user
(``user<i>.*`` series, events stamped ``user=i``); per-headset QoE
from one :class:`repro.rate.adaptation.RateAdapter` per user with
``series_prefix="user<i>."``, folded into the aggregate
``users.worst.rate_mbps`` / ``users.mean.rate_mbps`` series that the
stock SLO catalog watches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import telemetry
from repro.control.scheduler import AirtimeScheduler, SharedWindowImpact
from repro.core.controller import (
    SAMPLE_PERIOD_S,
    LinkDecision,
    LinkStateTracker,
    MoVRSystem,
)
from repro.geometry.bodies import PersonModel
from repro.geometry.mobility import PoseSample
from repro.geometry.room import Occluder
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio
from repro.rate.adaptation import RateAdapter

#: Probes one beam search costs when a user's serving path changes —
#: the hierarchical search of the ablation study, not the exhaustive
#: 12k-probe sweep (see EXPERIMENTS.md).
DEFAULT_PROBES_PER_SEARCH = 234


@dataclass(frozen=True)
class MultiUserTick:
    """Everything one multi-user scheduling instant produced."""

    t_s: float
    decisions: Tuple[LinkDecision, ...]
    #: The shared TDD window this tick's frames competed for.
    window: SharedWindowImpact

    @property
    def frames_lost(self) -> int:
        return self.window.frames_lost


class MultiUserSystem:
    """One room, one AP, a shared reflector fleet, N headsets.

    Wraps a calibrated :class:`MoVRSystem` (link budgets, reflector
    models, scene cache, the decision engine) and adds what is truly
    multi-user: cross-player blockage, per-user rate adaptation, the
    shared airtime window and the ``users.*`` aggregates.
    """

    def __init__(
        self,
        system: MoVRSystem,
        num_users: int,
        scheduler: Optional[AirtimeScheduler] = None,
        probes_per_search: int = DEFAULT_PROBES_PER_SEARCH,
    ) -> None:
        if num_users < 1:
            raise ValueError("num_users must be >= 1")
        if probes_per_search < 0:
            raise ValueError("probes_per_search must be non-negative")
        self.system = system
        self.num_users = num_users
        self.scheduler = scheduler if scheduler is not None else AirtimeScheduler()
        self.probes_per_search = probes_per_search
        self.adapters = [
            RateAdapter(series_prefix=f"user{i}.") for i in range(num_users)
        ]
        self.trackers = [
            LinkStateTracker(prefix=f"user{i}.", user=i)
            for i in range(num_users)
        ]
        self._tick = 0

    # ------------------------------------------------------------------
    # Scene assembly
    # ------------------------------------------------------------------

    def headset_radio(self, user: int, pose: PoseSample) -> Radio:
        """The user's headset radio at a pose."""
        return Radio(
            pose.position,
            boresight_deg=pose.yaw_deg,
            config=HEADSET_RADIO_CONFIG,
            name=f"headset{user}",
        )

    def mutual_occluders(
        self,
        user: int,
        poses: Sequence[PoseSample],
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[Occluder]:
        """The occluders in ``user``'s scene: shared extras plus every
        *other* player's body."""
        occluders = list(extra_occluders)
        for j, pose in enumerate(poses):
            if j == user:
                continue
            body = PersonModel(position=pose.position, heading_deg=pose.yaw_deg)
            occluders.extend(body.occluders())
        return occluders

    # ------------------------------------------------------------------
    # Joint decision
    # ------------------------------------------------------------------

    def step(
        self,
        t_s: float,
        poses: Sequence[PoseSample],
        extra_occluders: Sequence[Occluder] = (),
    ) -> MultiUserTick:
        """Decide every user's serving path and share the TDD window.

        ``poses`` must have one entry per user.  The decisions come
        from :meth:`MoVRSystem.decide_joint` (see there for the
        policy and the arbitration); a user whose serving path changed
        pays one beam search's probes in this tick's window.
        """
        if len(poses) != self.num_users:
            raise ValueError(
                f"got {len(poses)} poses for {self.num_users} users"
            )
        system = self.system
        for i, pose in enumerate(poses):
            system.check_headset(pose.position, pose.yaw_deg, f"poses[{i}]")
        radios = [self.headset_radio(i, pose) for i, pose in enumerate(poses)]
        occluders = [
            self.mutual_occluders(i, poses, extra_occluders)
            for i in range(self.num_users)
        ]
        decisions = system.decide_joint(radios, occluders, t_s)

        # Rate adaptation + link state, then the shared TDD window at
        # the adapted per-user rates: frame loss becomes a function of
        # how many frames (and search probes) the window must carry.
        probe_counts = []
        for i, decision in enumerate(decisions):
            self.adapters[i].observe(decision.snr_db, t_s=t_s)
            searched = self.trackers[i].record(system, decision, t_s)
            probe_counts.append(self.probes_per_search if searched else 0)
        rates = [a.current_rate_mbps for a in self.adapters]
        window = self.scheduler.share_frame_window(
            rates, probe_counts=probe_counts, priority_offset=self._tick
        )
        self._sample_aggregates(t_s, rates, decisions, window)
        telemetry.inc("multiuser.ticks")
        telemetry.inc("multiuser.frames_lost", window.frames_lost)
        self._tick += 1
        return MultiUserTick(t_s=t_s, decisions=decisions, window=window)

    def reset_link_state(self) -> None:
        """Forget serving-path memory (start of a fresh session)."""
        for tracker in self.trackers:
            tracker.reset()
        self._tick = 0
        for adapter in self.adapters:
            adapter.reset()

    def _sample_aggregates(
        self,
        t_s: float,
        rates: Sequence[float],
        decisions: Tuple[LinkDecision, ...],
        window: SharedWindowImpact,
    ) -> None:
        for name, value in (
            ("users.worst.rate_mbps", min(rates)),
            ("users.mean.rate_mbps", sum(rates) / len(rates)),
            ("users.frame_loss_fraction", window.frames_lost / window.num_users),
            ("users.connected", sum(1 for d in decisions if d.connected)),
        ):
            telemetry.sample(name, t_s, value, min_interval_s=SAMPLE_PERIOD_S)


__all__ = [
    "DEFAULT_PROBES_PER_SEARCH",
    "MultiUserSystem",
    "MultiUserTick",
]

"""Human-body occluder models.

The paper's blockage scenarios (section 3) are: the player's hand raised in
front of the headset, the player's own head (after rotating away from
the AP), and another person walking between the AP and the headset.
Each maps to circular occluders with anthropometric dimensions.
mmWave signals do not meaningfully penetrate the human body, so tissue
depth of even a few centimeters produces tens of dB of loss (handled by
``repro.phy.blockage``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.geometry.shapes import Circle
from repro.geometry.vectors import Vec2

#: Anthropometric radii in meters (50th-percentile adult).
HAND_RADIUS_M = 0.05
HEAD_RADIUS_M = 0.095
TORSO_RADIUS_M = 0.17

#: Typical distance from the headset faceplate at which a player holds
#: a raised hand (e.g. reaching for a controller or gesturing).
HAND_REACH_M = 0.25


def hand_occluder(headset_position: Vec2, toward_angle_deg: float,
                  reach_m: float = HAND_REACH_M) -> Circle:
    """A raised hand directly in the beam path.

    The hand sits ``reach_m`` meters from the headset in the direction
    ``toward_angle_deg`` (normally the bearing toward the AP, which is
    what makes it a blocker).
    """
    if reach_m <= 0.0:
        raise ValueError(f"reach_m must be positive, got {reach_m}")
    center = headset_position + Vec2.from_polar(reach_m, toward_angle_deg)
    return Circle(center=center, radius=HAND_RADIUS_M)


def head_occluder(head_position: Vec2) -> Circle:
    """The player's own head as an occluder.

    In the "player rotated her head" scenario the receiver ends up on
    the far side of the skull from the AP, so the head itself blocks
    the path.  The caller places the head circle between the effective
    receiver position and the AP.
    """
    return Circle(center=head_position, radius=HEAD_RADIUS_M)


@dataclass
class PersonModel:
    """A standing/walking person: torso plus head cross-sections.

    In a 2-D floor plan the torso dominates blockage at headset height,
    so the model is a torso circle with the head circle offset slightly
    in the heading direction (leaning posture while walking).
    """

    position: Vec2
    heading_deg: float = 0.0
    torso_radius_m: float = TORSO_RADIUS_M
    head_radius_m: float = HEAD_RADIUS_M

    def occluders(self) -> List[Circle]:
        """The person's occluding circles at headset height."""
        head_offset = Vec2.from_polar(0.08, self.heading_deg)
        return [
            Circle(center=self.position, radius=self.torso_radius_m),
            Circle(center=self.position + head_offset, radius=self.head_radius_m),
        ]


def person_blocking_path(tx: Vec2, rx: Vec2, fraction: float = 0.5) -> PersonModel:
    """Place a person on the TX-RX line at ``fraction`` of the way.

    This reproduces the "another person walks between headset and
    transmitter" scenario: heading is perpendicular to the path, as a
    person crossing it would walk.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    point = tx + (rx - tx) * fraction
    path_bearing = (rx - tx).angle_deg()
    return PersonModel(position=point, heading_deg=path_bearing + 90.0)


def self_head_blocking(headset_position: Vec2, ap_position: Vec2,
                       offset_m: float = 0.11) -> Circle:
    """The player's head blocking her own receiver.

    When the player rotates so the receiver faces away from the AP, the
    skull sits between receiver and AP.  We model this as the head
    circle displaced ``offset_m`` from the (virtual) receiver position
    toward the AP.
    """
    bearing = (ap_position - headset_position).angle_deg()
    center = headset_position + Vec2.from_polar(offset_m, bearing)
    return head_occluder(center)

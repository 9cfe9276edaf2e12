"""Image-method ray tracer for indoor mmWave propagation.

Produces :class:`PropagationPath` objects — the line-of-sight path and
specular wall reflections up to two bounces — annotated with per-leg
obstruction records.  The tracer is purely geometric: converting
lengths, bounces, and obstructions into dB of loss is the job of
``repro.phy.channel`` and ``repro.phy.blockage``, which keeps the
geometry reusable and independently testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from repro.geometry.room import Occluder, Room, Wall
from repro.geometry.shapes import EPSILON, Circle, Segment
from repro.geometry.vectors import Vec2, bearing_deg

#: How close (meters) two nodes may be before the far-field assumption
#: (and the Friis equation) breaks down.
MIN_SEPARATION_M = 0.05


@dataclass(frozen=True)
class Obstruction:
    """One occluder cutting through one leg of a path.

    ``depth_m`` is the chord length of the leg inside the occluder;
    ``clearance_m`` is the (negative) distance from the leg to the
    occluder edge.  ``along_leg_m``/``leg_length_m`` locate the
    obstruction along the leg — knife-edge diffraction loss depends on
    the distances from the obstacle to each leg endpoint.
    """

    occluder: Occluder
    leg_index: int
    depth_m: float
    clearance_m: float
    along_leg_m: float
    leg_length_m: float


@dataclass(frozen=True)
class PropagationPath:
    """A geometric propagation path from TX to RX.

    ``points`` is the polyline TX, bounce..., RX.  ``walls`` holds the
    wall reflected on at each interior point (empty for LOS).
    ``penetrated_walls`` lists walls the direct path passes *through*
    (interior partitions) — each contributes its material's
    penetration loss, which at mmWave is usually fatal.
    """

    points: Tuple[Vec2, ...]
    walls: Tuple[Wall, ...]
    obstructions: Tuple[Obstruction, ...] = ()
    penetrated_walls: Tuple[Wall, ...] = ()

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("a path needs at least TX and RX points")
        if len(self.walls) != len(self.points) - 2:
            raise ValueError("need exactly one wall per interior bounce point")

    @property
    def num_bounces(self) -> int:
        return len(self.walls)

    @property
    def is_line_of_sight(self) -> bool:
        return self.num_bounces == 0

    @property
    def total_length_m(self) -> float:
        """Total traveled distance in meters."""
        return sum(
            self.points[i].distance_to(self.points[i + 1])
            for i in range(len(self.points) - 1)
        )

    @property
    def departure_angle_deg(self) -> float:
        """Azimuth of the first leg as seen from the transmitter."""
        return bearing_deg(self.points[0], self.points[1])

    @property
    def arrival_angle_deg(self) -> float:
        """Azimuth from the receiver back toward the last leg's origin.

        This is the direction the receiver must *point* to capture the
        path.
        """
        return bearing_deg(self.points[-1], self.points[-2])

    @property
    def total_reflection_loss_db(self) -> float:
        """Sum of per-bounce reflection losses in dB."""
        return sum(w.material.reflection_loss_db for w in self.walls)

    @property
    def total_penetration_loss_db(self) -> float:
        """Sum of through-wall penetration losses in dB."""
        return sum(w.material.penetration_loss_db for w in self.penetrated_walls)

    @property
    def is_obstructed(self) -> bool:
        return bool(self.obstructions)

    @property
    def legs(self) -> List[Segment]:
        return [
            Segment(self.points[i], self.points[i + 1])
            for i in range(len(self.points) - 1)
        ]

    def propagation_delay_s(self, speed: float = 299_792_458.0) -> float:
        """Time of flight in seconds."""
        return self.total_length_m / speed


class RayTracer:
    """Traces LOS and specular reflection paths inside a :class:`Room`."""

    def __init__(self, room: Room) -> None:
        self.room = room

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def line_of_sight(
        self,
        tx: Vec2,
        rx: Vec2,
        extra_occluders: Sequence[Occluder] = (),
        include_room_occluders: bool = True,
    ) -> PropagationPath:
        """The direct path, annotated with any occluders cutting it.

        The LOS path geometrically always exists; whether it is *usable*
        depends on its obstructions, which the blockage model converts
        to attenuation.  ``include_room_occluders=False`` skips the
        room's static furniture — used for infrastructure links (AP to
        wall-mounted reflector) that run above furniture height, a
        deliberate correction for the floor plan being 2-D.
        """
        self._check_separation(tx, rx)
        obstructions = self._leg_obstructions(
            (tx, rx), extra_occluders, include_room_occluders
        )
        penetrated = self._walls_crossed(tx, rx)
        return PropagationPath(
            points=(tx, rx),
            walls=(),
            obstructions=tuple(obstructions),
            penetrated_walls=tuple(penetrated),
        )

    def reflection_paths(
        self,
        tx: Vec2,
        rx: Vec2,
        max_bounces: int = 2,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[PropagationPath]:
        """All specular wall-reflection paths up to ``max_bounces``.

        Paths whose legs pass through occluders are *kept* (with their
        obstruction records): a partially blocked reflection may still
        be the best alternative, exactly the situation the paper's
        Opt-NLOS baseline probes.
        """
        if max_bounces < 1:
            raise ValueError(f"max_bounces must be >= 1, got {max_bounces}")
        self._check_separation(tx, rx)
        paths: List[PropagationPath] = []
        for wall in self.room.walls:
            path = self._single_bounce(tx, rx, wall, extra_occluders)
            if path is not None:
                paths.append(path)
        if max_bounces >= 2:
            for wall1, wall2 in permutations(self.room.walls, 2):
                path = self._double_bounce(tx, rx, wall1, wall2, extra_occluders)
                if path is not None:
                    paths.append(path)
        return paths

    def all_paths(
        self,
        tx: Vec2,
        rx: Vec2,
        max_bounces: int = 2,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[PropagationPath]:
        """LOS plus every reflection path up to ``max_bounces``."""
        return [self.line_of_sight(tx, rx, extra_occluders)] + self.reflection_paths(
            tx, rx, max_bounces, extra_occluders
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _check_separation(tx: Vec2, rx: Vec2) -> None:
        if tx.distance_to(rx) < MIN_SEPARATION_M:
            raise ValueError(
                f"TX and RX closer than {MIN_SEPARATION_M} m: far-field model invalid"
            )

    def _single_bounce(
        self,
        tx: Vec2,
        rx: Vec2,
        wall: Wall,
        extra_occluders: Sequence[Occluder],
    ) -> Optional[PropagationPath]:
        image = wall.segment.mirror_point(tx)
        if image.distance_to(rx) < EPSILON:
            return None
        bounce = wall.segment.intersect(Segment(image, rx))
        if bounce is None:
            return None
        if bounce.distance_to(tx) < MIN_SEPARATION_M or bounce.distance_to(rx) < MIN_SEPARATION_M:
            return None
        points = (tx, bounce, rx)
        if self._leg_crosses_wall(tx, bounce, exclude=(wall,)) or self._leg_crosses_wall(
            bounce, rx, exclude=(wall,)
        ):
            return None
        obstructions = self._leg_obstructions(points, extra_occluders)
        return PropagationPath(points=points, walls=(wall,), obstructions=tuple(obstructions))

    def _double_bounce(
        self,
        tx: Vec2,
        rx: Vec2,
        wall1: Wall,
        wall2: Wall,
        extra_occluders: Sequence[Occluder],
    ) -> Optional[PropagationPath]:
        image1 = wall1.segment.mirror_point(tx)
        image2 = wall2.segment.mirror_point(image1)
        if image2.distance_to(rx) < EPSILON:
            return None
        bounce2 = wall2.segment.intersect(Segment(image2, rx))
        if bounce2 is None:
            return None
        bounce1 = wall1.segment.intersect(Segment(image1, bounce2))
        if bounce1 is None:
            return None
        for p, q in ((tx, bounce1), (bounce1, bounce2), (bounce2, rx)):
            if p.distance_to(q) < MIN_SEPARATION_M:
                return None
        if (
            self._leg_crosses_wall(tx, bounce1, exclude=(wall1,))
            or self._leg_crosses_wall(bounce1, bounce2, exclude=(wall1, wall2))
            or self._leg_crosses_wall(bounce2, rx, exclude=(wall2,))
        ):
            return None
        points = (tx, bounce1, bounce2, rx)
        obstructions = self._leg_obstructions(points, extra_occluders)
        return PropagationPath(
            points=points, walls=(wall1, wall2), obstructions=tuple(obstructions)
        )

    def _walls_crossed(self, a: Vec2, b: Vec2) -> List[Wall]:
        """Walls the open segment (a, b) passes through.

        Endpoint grazes are ignored (a radio sits *against* a wall, not
        inside it).  Used for LOS penetration accounting; reflection
        legs that cross walls are dropped instead, since penetration
        loss on top of reflection loss makes them irrelevant.
        """
        leg = Segment(a, b)
        crossed: List[Wall] = []
        for wall in self.room.walls:
            hit = leg.intersect(wall.segment)
            if hit is None:
                continue
            if hit.distance_to(a) > 1e-6 and hit.distance_to(b) > 1e-6:
                crossed.append(wall)
        return crossed

    def _leg_crosses_wall(
        self, a: Vec2, b: Vec2, exclude: Tuple[Wall, ...] = ()
    ) -> bool:
        """Does the open segment (a, b) cross any non-excluded wall?

        Intersections within a small margin of the leg endpoints are
        ignored: a reflection leg necessarily *touches* its bounce wall
        at an endpoint.
        """
        leg = Segment(a, b)
        for wall in self.room.walls:
            if wall in exclude:
                continue
            hit = leg.intersect(wall.segment)
            if hit is None:
                continue
            if hit.distance_to(a) > 1e-6 and hit.distance_to(b) > 1e-6:
                return True
        return False

    def _leg_obstructions(
        self,
        points: Tuple[Vec2, ...],
        extra_occluders: Sequence[Occluder],
        include_room_occluders: bool = True,
    ) -> List[Obstruction]:
        occluders = (
            list(self.room.occluders) if include_room_occluders else []
        ) + list(extra_occluders)
        records: List[Obstruction] = []
        for leg_index in range(len(points) - 1):
            a, b = points[leg_index], points[leg_index + 1]
            leg_vec = b - a
            leg_length = leg_vec.norm
            for occ in occluders:
                depth = occ.chord_length(a, b)
                if depth <= 0.0:
                    continue
                if isinstance(occ, Circle):
                    clearance = occ.clearance(a, b)
                    along = (occ.center - a).dot(leg_vec) / leg_length
                else:
                    clearance = -depth / 2.0
                    along = (occ.center - a).dot(leg_vec) / leg_length
                along = min(leg_length, max(0.0, along))
                records.append(
                    Obstruction(
                        occluder=occ,
                        leg_index=leg_index,
                        depth_m=depth,
                        clearance_m=clearance,
                        along_leg_m=along,
                        leg_length_m=leg_length,
                    )
                )
        return records

"""Image-method ray tracer for indoor mmWave propagation.

Produces :class:`PropagationPath` objects — the line-of-sight path and
specular wall reflections up to two bounces — annotated with per-leg
obstruction records.  The tracer is purely geometric: converting
lengths, bounces, and obstructions into dB of loss is the job of
``repro.phy.channel`` and ``repro.phy.blockage``, which keeps the
geometry reusable and independently testable.

Every query is solved array-at-a-time (see :class:`RayTracer`); the
arithmetic per candidate is that of the scalar ``Segment`` methods, so
the bounce points are bit-identical to a per-wall loop over them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.room import Occluder, Room, Wall
from repro.geometry.shapes import EPSILON, Circle
from repro.geometry.vectors import Vec2, bearing_deg

#: How close (meters) two nodes may be before the far-field assumption
#: (and the Friis equation) breaks down.
MIN_SEPARATION_M = 0.05

#: Margin (meters) of the occluder broad phase.  A leg this close to an
#: occluder gets the exact test, so float rounding in the array test can
#: never drop an obstruction.
BROAD_PHASE_MARGIN_M = 1e-6

#: Image trees memoized per wall set, one per transmitter position.  The
#: AP and the reflectors never move, so a handful are ever live.
MAX_IMAGE_TREES = 64

#: Wall hits closer than this (meters) to a leg endpoint are grazes, not
#: crossings.
_GRAZE_M = 1e-6


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


class RayTracer:
    """Traces LOS and specular reflection paths inside a :class:`Room`.

    Queries run array-at-a-time: the image tree of a transmitter (W
    first-order and W(W-1) second-order image points) is built once
    and memoized, and every candidate path's bounce points, wall
    crossings and occluder broad phase are solved as NumPy array
    operations.  Exact :class:`Obstruction` records are then computed
    only for the (leg, occluder) pairs the broad phase flags, with the
    occluders' own scalar ``chord_length``/``clearance`` formulas.
    """

    def __init__(self, room: Room) -> None:
        self.room = room
        self._wall_set: Optional[_WallSet] = None

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
        occluders = (
            list(self.room.occluders) if include_room_occluders else []
        ) + list(extra_occluders)
        return self._trace(tx, rx, 0, occluders)[0]

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
        Opt-NLOS baseline probes.  Single bounces come first, in wall
        order, then double bounces in ``permutations(walls, 2)`` order.
        """
        self._check_bounces(max_bounces)
        self._check_separation(tx, rx)
        occluders = list(self.room.occluders) + list(extra_occluders)
        return self._trace(tx, rx, max_bounces, occluders)[1:]

    def all_paths(
        self,
        tx: Vec2,
        rx: Vec2,
        max_bounces: int = 2,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[PropagationPath]:
        """LOS plus every reflection path up to ``max_bounces``."""
        self._check_separation(tx, rx)
        self._check_bounces(max_bounces)
        occluders = list(self.room.occluders) + list(extra_occluders)
        return self._trace(tx, rx, max_bounces, occluders)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _check_separation(tx: Vec2, rx: Vec2) -> None:
        if tx.distance_to(rx) < MIN_SEPARATION_M:
            raise ValueError(
                f"TX and RX closer than {MIN_SEPARATION_M} m: far-field model invalid"
            )

    @staticmethod
    def _check_bounces(max_bounces: int) -> None:
        if max_bounces < 1:
            raise ValueError(f"max_bounces must be >= 1, got {max_bounces}")

    def _walls(self) -> "_WallSet":
        """Array form of the room's current walls.

        Rebuilt (dropping every memoized image tree) whenever the wall
        list differs from the one the arrays describe, so editing the
        room's walls can never serve a stale tree.
        """
        walls = tuple(self.room.walls)
        if self._wall_set is None or self._wall_set.walls != walls:
            self._wall_set = _WallSet(walls)
        return self._wall_set

    def _trace(
        self, tx: Vec2, rx: Vec2, bounces: int, occluders: List[Occluder]
    ) -> List[PropagationPath]:
        """The LOS path, then (``bounces >= 1``) every valid reflection.

        Legs are laid out in rows: the LOS leg, the two legs of each
        single bounce, then the three legs of each double bounce.
        """
        ws = self._walls()
        n_walls, n_pairs = len(ws.walls), len(ws.pairs)
        tx_x, tx_y, rx_x, rx_y = tx.x, tx.y, rx.x, rx.y
        starts_x, starts_y = [np.array([tx_x])], [np.array([tx_y])]
        ends_x, ends_y = [np.array([rx_x])], [np.array([rx_y])]
        with np.errstate(divide="ignore", invalid="ignore"):
            if bounces >= 1:
                i1x, i1y, j1x, j1y, i2x, i2y = ws.image_tree(tx_x, tx_y)
                # Image -> RX hits the bounce wall at the bounce point.
                sx, sy = rx_x - i1x, rx_y - i1y
                b_x, b_y, single_ok = _intersect(
                    ws.ax, ws.ay, ws.vx, ws.vy, i1x, i1y, sx, sy
                )
                single_ok &= (
                    (np.hypot(sx, sy) >= EPSILON)
                    & (np.hypot(b_x - tx_x, b_y - tx_y) >= MIN_SEPARATION_M)
                    & (np.hypot(b_x - rx_x, b_y - rx_y) >= MIN_SEPARATION_M)
                )
                starts_x += [np.full(n_walls, tx_x), b_x]
                starts_y += [np.full(n_walls, tx_y), b_y]
                ends_x += [b_x, np.full(n_walls, rx_x)]
                ends_y += [b_y, np.full(n_walls, rx_y)]
            if bounces >= 2:
                # Second image -> RX gives the second bounce; the first
                # image -> second bounce back-projects onto the first.
                sx, sy = rx_x - i2x, rx_y - i2y
                c2x, c2y, double_ok = _intersect(
                    ws.ax2, ws.ay2, ws.vx2, ws.vy2, i2x, i2y, sx, sy
                )
                s1x, s1y = c2x - j1x, c2y - j1y
                c1x, c1y, first_ok = _intersect(
                    ws.ax1, ws.ay1, ws.vx1, ws.vy1, j1x, j1y, s1x, s1y
                )
                double_ok &= (
                    first_ok
                    & (np.hypot(sx, sy) >= EPSILON)
                    & (np.hypot(s1x, s1y) >= EPSILON)
                    & (np.hypot(c1x - tx_x, c1y - tx_y) >= MIN_SEPARATION_M)
                    & (np.hypot(c2x - c1x, c2y - c1y) >= MIN_SEPARATION_M)
                    & (np.hypot(c2x - rx_x, c2y - rx_y) >= MIN_SEPARATION_M)
                )
                starts_x += [np.full(n_pairs, tx_x), c1x, c2x]
                starts_y += [np.full(n_pairs, tx_y), c1y, c2y]
                ends_x += [c1x, c2x, np.full(n_pairs, rx_x)]
                ends_y += [c1y, c2y, np.full(n_pairs, rx_y)]
            ax, ay = np.concatenate(starts_x), np.concatenate(starts_y)
            bx, by = np.concatenate(ends_x), np.concatenate(ends_y)
            crossed = _crossings(ws, ax, ay, bx, by)
            blocked = (crossed & ~ws.exclude[: len(ax)]).any(axis=1)
            flags = _broad_phase(ax, ay, bx, by, occluders)
        flagged: Dict[int, List[int]] = {}
        for row, j in np.argwhere(flags).tolist():
            flagged.setdefault(row, []).append(j)

        def obstructions(points: Tuple[Vec2, ...], rows) -> Tuple[Obstruction, ...]:
            records = []
            for leg_index, row in enumerate(rows):
                for j in flagged.get(row, ()):
                    a, b = points[leg_index], points[leg_index + 1]
                    record = _obstruction(occluders[j], leg_index, a, b)
                    if record is not None:
                        records.append(record)
            return tuple(records)

        walls = ws.walls
        paths = [
            PropagationPath(
                points=(tx, rx),
                walls=(),
                obstructions=obstructions((tx, rx), (0,)),
                penetrated_walls=tuple(
                    walls[i] for i in np.flatnonzero(crossed[0]).tolist()
                ),
            )
        ]
        o = 1 + 2 * n_walls  # first double-bounce row
        if bounces >= 1:
            single_ok &= ~blocked[1 : 1 + n_walls] & ~blocked[1 + n_walls : o]
            bxl, byl = b_x.tolist(), b_y.tolist()
            for w in np.flatnonzero(single_ok).tolist():
                points = (tx, Vec2(bxl[w], byl[w]), rx)
                rows = (1 + w, 1 + n_walls + w)
                paths.append(
                    PropagationPath(
                        points=points,
                        walls=(walls[w],),
                        obstructions=obstructions(points, rows),
                    )
                )
        if bounces >= 2:
            double_ok &= (
                ~blocked[o : o + n_pairs]
                & ~blocked[o + n_pairs : o + 2 * n_pairs]
                & ~blocked[o + 2 * n_pairs :]
            )
            c1xl, c1yl = c1x.tolist(), c1y.tolist()
            c2xl, c2yl = c2x.tolist(), c2y.tolist()
            for k in np.flatnonzero(double_ok).tolist():
                points = (tx, Vec2(c1xl[k], c1yl[k]), Vec2(c2xl[k], c2yl[k]), rx)
                rows = (o + k, o + n_pairs + k, o + 2 * n_pairs + k)
                first, second = ws.pairs[k]
                paths.append(
                    PropagationPath(
                        points=points,
                        walls=(walls[first], walls[second]),
                        obstructions=obstructions(points, rows),
                    )
                )
        return paths


class _WallSet:
    """One tuple of walls as arrays, plus its memoized image trees."""

    def __init__(self, walls: Tuple[Wall, ...]) -> None:
        self.walls = walls
        segments = [w.segment for w in walls]
        self.ax = np.array([s.a.x for s in segments])
        self.ay = np.array([s.a.y for s in segments])
        self.vx = np.array([s.b.x - s.a.x for s in segments])
        self.vy = np.array([s.b.y - s.a.y for s in segments])
        # Unit directions from the scalar property, so mirrored images
        # are bit-identical to ``Segment.mirror_point``.
        directions = [s.direction for s in segments]
        self.ux = np.array([d.x for d in directions])
        self.uy = np.array([d.y for d in directions])
        # Double bounces off (first, second) wall pairs, in the order
        # of ``permutations(walls, 2)``.
        self.pairs = list(permutations(range(len(walls)), 2))
        self.first = np.array([i for i, _ in self.pairs], dtype=int)
        self.second = np.array([j for _, j in self.pairs], dtype=int)
        f, s = self.first, self.second
        self.ax1, self.ay1 = self.ax[f], self.ay[f]
        self.vx1, self.vy1 = self.vx[f], self.vy[f]
        self.ax2, self.ay2 = self.ax[s], self.ay[s]
        self.vx2, self.vy2 = self.vx[s], self.vy[s]
        # A leg is never tested against its own bounce walls (nor any
        # wall equal to them), one row per leg in ``_trace`` layout.
        same = np.array([[u == v for v in walls] for u in walls], dtype=bool)
        self.exclude = np.concatenate(
            [
                np.zeros((1, len(walls)), dtype=bool),
                same,
                same,
                same[f],
                same[f] | same[s],
                same[s],
            ]
        )
        self._trees: "OrderedDict[Tuple[float, float], Tuple[np.ndarray, ...]]" = (
            OrderedDict()
        )

    def image_tree(self, x: float, y: float) -> Tuple[np.ndarray, ...]:
        """First-order images, the first-order image of each pair's
        first wall, and second-order images of a transmitter at (x, y)."""
        key = (x, y)
        tree = self._trees.get(key)
        if tree is not None:
            self._trees.move_to_end(key)
            return tree
        i1x, i1y = _mirror(x, y, self.ax, self.ay, self.ux, self.uy)
        j1x, j1y = i1x[self.first], i1y[self.first]
        s = self.second
        i2x, i2y = _mirror(j1x, j1y, self.ax2, self.ay2, self.ux[s], self.uy[s])
        tree = (i1x, i1y, j1x, j1y, i2x, i2y)
        self._trees[key] = tree
        if len(self._trees) > MAX_IMAGE_TREES:
            self._trees.popitem(last=False)
        return tree


def _mirror(px, py, ax, ay, ux, uy):
    """:meth:`Segment.mirror_point` element-wise, operation for operation."""
    apx, apy = px - ax, py - ay
    dot = apx * ux + apy * uy
    return px - (apx - ux * dot) * 2.0, py - (apy - uy * dot) * 2.0


def _intersect(ax, ay, rx, ry, bx, by, sx, sy):
    """:meth:`Segment.intersect` of ``a + t*r`` with ``b + u*s``, element-wise.

    Returns the hit point on the first segment and the mask of pairs
    that hit.  The arithmetic is the scalar method's, so hit points are
    bit-identical to it.
    """
    denom = rx * sy - ry * sx
    qx, qy = bx - ax, by - ay
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    hit = (
        (np.abs(denom) >= EPSILON)
        & (t >= -EPSILON)
        & (t <= 1.0 + EPSILON)
        & (u >= -EPSILON)
        & (u <= 1.0 + EPSILON)
    )
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    return ax + rx * t, ay + ry * t, hit


def _crossings(ws: _WallSet, ax, ay, bx, by) -> np.ndarray:
    """``(legs, walls)`` mask: the open leg passes through the wall.

    Hits within ``_GRAZE_M`` of a leg endpoint are ignored: a radio
    sits *against* a wall, and a reflection leg necessarily touches its
    bounce wall.  LOS legs report these walls as penetrated; reflection
    legs that cross any wall but their own bounce walls are dropped,
    since penetration loss on top of reflection loss makes them
    irrelevant.
    """
    ax, ay, bx, by = ax[:, None], ay[:, None], bx[:, None], by[:, None]
    hx, hy, hit = _intersect(ax, ay, bx - ax, by - ay, ws.ax, ws.ay, ws.vx, ws.vy)
    return (
        hit
        & (np.hypot(hx - ax, hy - ay) > _GRAZE_M)
        & (np.hypot(hx - bx, hy - by) > _GRAZE_M)
    )


def _broad_phase(ax, ay, bx, by, occluders: Sequence[Occluder]) -> np.ndarray:
    """``(legs, occluders)`` mask of pairs that may obstruct.

    Conservative by :data:`BROAD_PHASE_MARGIN_M`: every pair with a
    positive chord length is flagged; a flagged pair with none is
    discarded by the exact test.
    """
    flags = np.zeros((len(ax), len(occluders)), dtype=bool)
    circles = [j for j, occ in enumerate(occluders) if isinstance(occ, Circle)]
    boxes = [j for j, occ in enumerate(occluders) if not isinstance(occ, Circle)]
    ax, ay, bx, by = ax[:, None], ay[:, None], bx[:, None], by[:, None]
    dx, dy = bx - ax, by - ay
    margin = BROAD_PHASE_MARGIN_M
    if circles:
        cx, cy, reach = np.array(
            [
                (occluders[j].center.x, occluders[j].center.y, occluders[j].radius)
                for j in circles
            ]
        ).T
        # Distance from each centre to the closest point of each leg.
        ex, ey = cx - ax, cy - ay
        t = (ex * dx + ey * dy) / (dx * dx + dy * dy)
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        flags[:, circles] = np.hypot(ex - dx * t, ey - dy * t) < reach + margin
    if boxes:
        lo_x, lo_y, hi_x, hi_y = np.array(
            [
                (
                    occluders[j].min_corner.x - margin,
                    occluders[j].min_corner.y - margin,
                    occluders[j].max_corner.x + margin,
                    occluders[j].max_corner.y + margin,
                )
                for j in boxes
            ]
        ).T
        # Slab test over the margin-grown boxes.  A leg that does not
        # move along an axis gets +-inf there: unconstrained when its
        # coordinate is inside the slab, empty when outside.
        t1x, t2x = (lo_x - ax) / dx, (hi_x - ax) / dx
        t1y, t2y = (lo_y - ay) / dy, (hi_y - ay) / dy
        enter = np.maximum(np.maximum(np.minimum(t1x, t2x), np.minimum(t1y, t2y)), 0.0)
        leave = np.minimum(np.minimum(np.maximum(t1x, t2x), np.maximum(t1y, t2y)), 1.0)
        flags[:, boxes] = enter <= leave
    return flags


def _obstruction(
    occluder: Occluder, leg_index: int, a: Vec2, b: Vec2
) -> Optional[Obstruction]:
    """The exact record of ``occluder`` cutting leg ``a -> b``, if it does."""
    depth = occluder.chord_length(a, b)
    if depth <= 0.0:
        return None
    leg_vec = b - a
    leg_length = leg_vec.norm
    if isinstance(occluder, Circle):
        clearance = occluder.clearance(a, b)
    else:
        clearance = -depth / 2.0
    along = (occluder.center - a).dot(leg_vec) / leg_length
    return Obstruction(
        occluder=occluder,
        leg_index=leg_index,
        depth_m=depth,
        clearance_m=clearance,
        along_leg_m=min(leg_length, max(0.0, along)),
        leg_length_m=leg_length,
    )

"""The array-at-a-time tracer against the scalar oracle.

``scalar_raytrace.ScalarRayTracer`` is the per-wall, per-leg tracer the
library used to ship.  These tests require :class:`RayTracer` to return
the same paths in the same order, with the same walls, the same points
(to 1e-9 m), the same penetrated walls and the same obstruction records
(to 1e-9), for random poses and occluder sets in the standard office and
in the two-room apartment of ``ext-apartment`` (which has interior
walls).
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scalar_raytrace import ScalarRayTracer

from repro.experiments.apartment import build_apartment
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import GLASS, METAL, Wall, standard_office
from repro.geometry.shapes import AxisAlignedBox, Circle, Segment
from repro.geometry.vectors import Vec2

TOL = 1e-9

ROOMS = {"office": standard_office, "apartment": build_apartment}

#: The testbed's AP and reflector mounting spots (corners, 0.3 m in).
FIXED_ENDPOINTS = [Vec2(0.3, 0.3), Vec2(4.7, 4.7), Vec2(4.7, 0.3), Vec2(0.3, 4.7)]


def assert_same_paths(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.walls == want.walls
        assert got.penetrated_walls == want.penetrated_walls
        assert len(got.points) == len(want.points)
        for p, q in zip(got.points, want.points):
            assert p.x == pytest.approx(q.x, abs=TOL)
            assert p.y == pytest.approx(q.y, abs=TOL)
        assert len(got.obstructions) == len(want.obstructions)
        for o, e in zip(got.obstructions, want.obstructions):
            assert o.occluder is e.occluder
            assert o.leg_index == e.leg_index
            for field in ("depth_m", "clearance_m", "along_leg_m", "leg_length_m"):
                assert getattr(o, field) == pytest.approx(getattr(e, field), abs=TOL)


def coordinate(lo, hi):
    """A coordinate in [lo, hi], sometimes exactly on a wall line."""
    return st.one_of(
        st.floats(min_value=lo, max_value=hi), st.sampled_from([lo, hi])
    )


@st.composite
def scenes(draw):
    name = draw(st.sampled_from(sorted(ROOMS)))
    room = ROOMS[name]()
    box = room.bounding_box()
    x0, y0, x1, y1 = box.min_corner.x, box.min_corner.y, box.max_corner.x, box.max_corner.y
    inside = st.builds(
        Vec2,
        st.floats(min_value=x0 + 0.05, max_value=x1 - 0.05),
        st.floats(min_value=y0 + 0.05, max_value=y1 - 0.05),
    )
    tx = draw(st.one_of(st.sampled_from(FIXED_ENDPOINTS), inside))
    rx = draw(st.one_of(st.sampled_from(FIXED_ENDPOINTS), inside))
    assume(tx.distance_to(rx) >= 0.1)
    occluders = []
    for kind in draw(st.lists(st.sampled_from(["circle", "box", "touching"]), max_size=6)):
        if kind == "circle":
            centre = Vec2(draw(coordinate(x0, x1)), draw(coordinate(y0, y1)))
            occluders.append(Circle(centre, draw(st.floats(0.05, 0.6))))
        elif kind == "box":
            lo = Vec2(draw(coordinate(x0, x1 - 0.1)), draw(coordinate(y0, y1 - 0.1)))
            width = draw(st.floats(0.05, 1.5))
            height = draw(st.floats(0.05, 1.5))
            occluders.append(AxisAlignedBox(lo, Vec2(lo.x + width, lo.y + height)))
        else:
            # A circle tangent to the west or south wall.
            radius = draw(st.floats(0.05, 0.6))
            along = draw(st.floats(min_value=radius, max_value=y1 - radius))
            if draw(st.booleans()):
                occluders.append(Circle(Vec2(x0 + radius, along), radius))
            else:
                occluders.append(Circle(Vec2(along, y0 + radius), radius))
    return room, tx, rx, occluders


@settings(max_examples=150, deadline=None)
@given(scenes(), st.sampled_from([1, 2]))
def test_all_and_reflection_paths_match_oracle(scene, max_bounces):
    room, tx, rx, occluders = scene
    fast, oracle = RayTracer(room), ScalarRayTracer(room)
    assert_same_paths(
        fast.all_paths(tx, rx, max_bounces, occluders),
        oracle.all_paths(tx, rx, max_bounces, occluders),
    )
    assert_same_paths(
        fast.reflection_paths(tx, rx, max_bounces, occluders),
        oracle.reflection_paths(tx, rx, max_bounces, occluders),
    )


@settings(max_examples=150, deadline=None)
@given(scenes(), st.booleans())
def test_line_of_sight_matches_oracle(scene, include_room_occluders):
    room, tx, rx, occluders = scene
    fast, oracle = RayTracer(room), ScalarRayTracer(room)
    assert_same_paths(
        [fast.line_of_sight(tx, rx, occluders, include_room_occluders)],
        [oracle.line_of_sight(tx, rx, occluders, include_room_occluders)],
    )


@pytest.mark.parametrize("gap", [-1e-7, -1e-9, 0.0, 1e-9, 1e-7])
def test_grazing_occluders_match_oracle(gap):
    """Occluders a hair inside or outside a leg: the broad phase must
    flag every pair the exact test counts, however thin the chord."""
    room = standard_office()
    tx, rx = Vec2(1.0, 1.0), Vec2(4.0, 1.0)
    occluders = [
        # Circles tangent to the LOS leg from either side, +- gap.
        Circle(Vec2(2.0, 1.0 + 0.2 + gap), 0.2),
        Circle(Vec2(3.0, 1.0 - 0.3 - gap), 0.3),
        # Boxes whose edge lies on the leg, +- gap.
        AxisAlignedBox(Vec2(1.5, 1.0 + gap), Vec2(1.8, 1.6)),
        AxisAlignedBox(Vec2(3.3, 0.4), Vec2(3.5, 1.0 - gap)),
        # A sliver box the leg crosses over a 1e-4 m chord.
        AxisAlignedBox(Vec2(2.5, 0.5), Vec2(2.5001, 1.5)),
        # A box the diagonal leg below just clips at one corner.
        AxisAlignedBox(Vec2(2.0 - gap, 2.0 - gap), Vec2(2.4, 2.4)),
    ]
    fast, oracle = RayTracer(room), ScalarRayTracer(room)
    for a, b in ((tx, rx), (Vec2(1.0, 1.0), Vec2(3.0, 3.0))):
        assert_same_paths(
            fast.all_paths(a, b, 2, occluders), oracle.all_paths(a, b, 2, occluders)
        )


def test_repeated_transmitter_reuses_nothing_stale():
    """Many receivers against one memoized image tree stay exact."""
    room = standard_office()
    fast, oracle = RayTracer(room), ScalarRayTracer(room)
    tx = FIXED_ENDPOINTS[0]
    for i in range(40):
        rx = Vec2(0.6 + 0.1 * i, 4.4 - 0.09 * i)
        assert_same_paths(fast.all_paths(tx, rx), oracle.all_paths(tx, rx))


class TestWallEdits:
    """Editing the walls after a query never serves the old image tree."""

    tx, rx = Vec2(1.0, 2.0), Vec2(4.0, 2.5)

    def check(self, room, fast):
        assert_same_paths(
            fast.all_paths(self.tx, self.rx),
            ScalarRayTracer(room).all_paths(self.tx, self.rx),
        )

    def test_appended_interior_wall(self):
        room = standard_office()
        fast = RayTracer(room)
        before = fast.all_paths(self.tx, self.rx)
        room.walls.append(Wall(Segment(Vec2(2.5, 0.0), Vec2(2.5, 1.8))))
        self.check(room, fast)
        assert len(fast.all_paths(self.tx, self.rx)) != len(before)

    def test_wall_replaced_in_place(self):
        room = standard_office()
        fast = RayTracer(room)
        fast.all_paths(self.tx, self.rx)
        # Move the west wall 0.5 m into the room.
        room.walls[3] = Wall(Segment(Vec2(0.5, 5.0), Vec2(0.5, 0.0)))
        self.check(room, fast)

    def test_material_swapped(self):
        room = standard_office()
        fast = RayTracer(room)
        fast.all_paths(self.tx, self.rx)
        room.walls[:] = [Wall(w.segment, METAL) for w in room.walls]
        self.check(room, fast)
        assert all(
            w.material is METAL
            for p in fast.all_paths(self.tx, self.rx)
            for w in p.walls
        )

    def test_wall_removed(self):
        room = standard_office()
        room.walls.append(Wall(Segment(Vec2(2.5, 0.0), Vec2(2.5, 1.8)), GLASS))
        fast = RayTracer(room)
        fast.all_paths(self.tx, self.rx)
        room.walls.pop()
        self.check(room, fast)

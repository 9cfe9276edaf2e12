"""Unit tests for walls and occluder shapes."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from repro.geometry.shapes import AxisAlignedBox, Circle, Segment
from repro.geometry.vectors import Vec2

coords = st.floats(min_value=-50.0, max_value=50.0)
points = st.builds(Vec2, coords, coords)


class TestSegment:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Segment(Vec2(1, 1), Vec2(1, 1))

    def test_length_direction_midpoint(self):
        seg = Segment(Vec2(0, 0), Vec2(4, 0))
        assert seg.length == 4.0
        assert seg.direction == Vec2(1, 0)
        assert seg.normal == Vec2(0, 1)

    def test_point_at(self):
        seg = Segment(Vec2(0, 0), Vec2(2, 2))
        assert seg.point_at(0.5) == Vec2(1, 1)

    def test_crossing_intersection(self):
        a = Segment(Vec2(0, 0), Vec2(2, 2))
        b = Segment(Vec2(0, 2), Vec2(2, 0))
        assert a.intersect(b) == Vec2(1, 1)

    def test_disjoint_segments(self):
        a = Segment(Vec2(0, 0), Vec2(1, 0))
        b = Segment(Vec2(0, 1), Vec2(1, 1))
        assert a.intersect(b) is None

    def test_parallel_segments(self):
        a = Segment(Vec2(0, 0), Vec2(1, 1))
        b = Segment(Vec2(0, 1), Vec2(1, 2))
        assert a.intersect(b) is None

    def test_touching_at_endpoint(self):
        a = Segment(Vec2(0, 0), Vec2(1, 0))
        b = Segment(Vec2(1, 0), Vec2(1, 1))
        hit = a.intersect(b)
        assert hit is not None
        assert hit.distance_to(Vec2(1, 0)) < 1e-6

    def test_near_miss_is_none(self):
        a = Segment(Vec2(0, 0), Vec2(1, 0))
        b = Segment(Vec2(1.01, -1), Vec2(1.01, 1))
        assert a.intersect(b) is None

    def test_mirror_point_known(self):
        wall = Segment(Vec2(0, 0), Vec2(1, 0))  # the x axis
        assert wall.mirror_point(Vec2(0.5, 2.0)) == Vec2(0.5, -2.0)

    @given(points, points, points)
    def test_mirror_is_involution(self, a, b, p):
        assume(a.distance_to(b) > 1e-3)
        wall = Segment(a, b)
        twice = wall.mirror_point(wall.mirror_point(p))
        assert twice.distance_to(p) < 1e-6

    @given(points, points, points)
    def test_mirror_preserves_distance_to_line(self, a, b, p):
        assume(a.distance_to(b) > 1e-3)
        wall = Segment(a, b)
        image = wall.mirror_point(p)
        # Both the point and its image are equidistant from the wall line.
        d = wall.direction
        dist_p = abs((p - a).cross(d))
        dist_i = abs((image - a).cross(d))
        assert dist_p == pytest.approx(dist_i, abs=1e-6)


class TestCircle:
    def test_radius_validation(self):
        with pytest.raises(ValueError):
            Circle(Vec2(0, 0), 0.0)

    def test_contains(self):
        c = Circle(Vec2(0, 0), 1.0)
        assert c.contains(Vec2(0.5, 0.5))
        assert not c.contains(Vec2(2, 0))

    def test_intersects_segment(self):
        c = Circle(Vec2(0, 1), 0.5)
        assert not c.intersects_segment(Vec2(-2, 0), Vec2(2, 0))
        c2 = Circle(Vec2(0, 0.3), 0.5)
        assert c2.intersects_segment(Vec2(-2, 0), Vec2(2, 0))

    def test_chord_through_center(self):
        c = Circle(Vec2(0, 0), 1.0)
        assert c.chord_length(Vec2(-5, 0), Vec2(5, 0)) == pytest.approx(2.0)

    def test_chord_offset(self):
        c = Circle(Vec2(0, 0.6), 1.0)
        assert c.chord_length(Vec2(-5, 0), Vec2(5, 0)) == pytest.approx(1.6)

    def test_chord_disjoint_is_zero(self):
        c = Circle(Vec2(0, 3), 1.0)
        assert c.chord_length(Vec2(-5, 0), Vec2(5, 0)) == 0.0

    def test_chord_clipped_by_segment_extent(self):
        c = Circle(Vec2(0, 0), 1.0)
        # Segment ends at the circle's center.
        assert c.chord_length(Vec2(-5, 0), Vec2(0, 0)) == pytest.approx(1.0)

    def test_clearance_sign(self):
        c = Circle(Vec2(0, 2), 1.0)
        assert c.clearance(Vec2(-5, 0), Vec2(5, 0)) == pytest.approx(1.0)
        c_blocking = Circle(Vec2(0, 0.5), 1.0)
        assert c_blocking.clearance(Vec2(-5, 0), Vec2(5, 0)) == pytest.approx(-0.5)

    @given(
        st.builds(Circle, points, st.floats(min_value=0.1, max_value=5.0)),
        points,
        points,
    )
    def test_chord_bounded_by_diameter_and_segment(self, circle, a, b):
        assume(a.distance_to(b) > 1e-6)
        chord = circle.chord_length(a, b)
        assert 0.0 <= chord <= 2.0 * circle.radius + 1e-9
        assert chord <= a.distance_to(b) + 1e-9


class TestAxisAlignedBox:
    def test_corner_validation(self):
        with pytest.raises(ValueError):
            AxisAlignedBox(Vec2(1, 1), Vec2(1, 2))

    def test_dimensions(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(2, 3))
        assert box.width == 2.0
        assert box.height == 3.0
        assert box.center == Vec2(1, 1.5)

    def test_contains(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert box.contains(Vec2(0.5, 0.5))
        assert not box.contains(Vec2(1.5, 0.5))

    def test_segment_through_box(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert box.intersects_segment(Vec2(-1, 0.5), Vec2(2, 0.5))
        assert not box.intersects_segment(Vec2(-1, 2), Vec2(2, 2))

    def test_segment_endpoint_inside(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert box.intersects_segment(Vec2(0.5, 0.5), Vec2(5, 5))

    def test_chord_length_straight_through(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(2, 1))
        assert box.chord_length(Vec2(-1, 0.5), Vec2(3, 0.5)) == pytest.approx(2.0)

    def test_chord_length_diagonal(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert box.chord_length(Vec2(-1, -1), Vec2(2, 2)) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_chord_zero_when_disjoint(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert box.chord_length(Vec2(2, 2), Vec2(3, 3)) == 0.0

    def test_vertical_segment_outside_slab(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert not box.intersects_segment(Vec2(2, -1), Vec2(2, 2))

"""Unit tests for 2-D vector algebra."""


import pytest
from hypothesis import given, strategies as st

from repro.geometry.vectors import (
    Vec2,
    bearing_deg,
    point_segment_distance,
    project_point_on_segment,
)

coords = st.floats(min_value=-100.0, max_value=100.0)
vectors = st.builds(Vec2, coords, coords)
nonzero_vectors = vectors.filter(lambda v: v.norm > 1e-6)


class TestArithmetic:
    def test_add_sub(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)
        assert Vec2(3, 4) - Vec2(1, 2) == Vec2(2, 2)

    def test_scalar_ops(self):
        assert Vec2(1, 2) * 3.0 == Vec2(3, 6)
        assert 3.0 * Vec2(1, 2) == Vec2(3, 6)
        assert Vec2(2, 4) / 2.0 == Vec2(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Vec2(1, 1) / 0.0

    def test_negation_and_iteration(self):
        assert -Vec2(1, -2) == Vec2(-1, 2)
        assert list(Vec2(5, 6)) == [5, 6]

    def test_hashable(self):
        assert len({Vec2(1, 2), Vec2(1, 2), Vec2(2, 1)}) == 2


class TestGeometry:
    def test_dot_cross_known(self):
        assert Vec2(1, 0).dot(Vec2(0, 1)) == 0.0
        assert Vec2(1, 0).cross(Vec2(0, 1)) == 1.0
        assert Vec2(0, 1).cross(Vec2(1, 0)) == -1.0

    def test_norm(self):
        assert Vec2(3, 4).norm == 5.0
        assert Vec2(3, 4).norm_squared == 25.0

    def test_normalized(self):
        n = Vec2(3, 4).normalized()
        assert n.norm == pytest.approx(1.0)
        assert n.x == pytest.approx(0.6)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            Vec2.zero().normalized()

    def test_perpendicular_is_ccw(self):
        assert Vec2(1, 0).perpendicular() == Vec2(0, 1)

    def test_angle_deg_axes(self):
        assert Vec2(1, 0).angle_deg() == pytest.approx(0.0)
        assert Vec2(0, 1).angle_deg() == pytest.approx(90.0)
        assert Vec2(-1, 0).angle_deg() == pytest.approx(-180.0)
        assert Vec2(0, -1).angle_deg() == pytest.approx(-90.0)

    def test_from_polar(self):
        v = Vec2.from_polar(2.0, 90.0)
        assert v.x == pytest.approx(0.0, abs=1e-12)
        assert v.y == pytest.approx(2.0)

    def test_distance(self):
        assert Vec2(0, 0).distance_to(Vec2(3, 4)) == 5.0

    @given(nonzero_vectors)
    def test_from_polar_round_trip(self, v):
        rebuilt = Vec2.from_polar(v.norm, v.angle_deg())
        assert rebuilt.x == pytest.approx(v.x, abs=1e-6)
        assert rebuilt.y == pytest.approx(v.y, abs=1e-6)

    @given(vectors, vectors)
    def test_dot_symmetric_cross_antisymmetric(self, a, b):
        assert a.dot(b) == pytest.approx(b.dot(a))
        assert a.cross(b) == pytest.approx(-b.cross(a))

    @given(nonzero_vectors)
    def test_perpendicular_orthogonal(self, v):
        assert v.dot(v.perpendicular()) == pytest.approx(0.0, abs=1e-6)


class TestBearing:
    def test_cardinal_bearings(self):
        origin = Vec2(1, 1)
        assert bearing_deg(origin, Vec2(2, 1)) == pytest.approx(0.0)
        assert bearing_deg(origin, Vec2(1, 2)) == pytest.approx(90.0)

    def test_identical_points_raise(self):
        with pytest.raises(ValueError):
            bearing_deg(Vec2(1, 1), Vec2(1, 1))

    @given(nonzero_vectors)
    def test_bearing_reverses(self, delta):
        a = Vec2(0, 0)
        b = delta
        forward = bearing_deg(a, b)
        backward = bearing_deg(b, a)
        diff = abs((forward - backward + 180.0) % 360.0 - 180.0)
        assert diff == pytest.approx(180.0, abs=1e-6) or diff == pytest.approx(
            -180.0, abs=1e-6
        )


class TestProjection:
    def test_interior_projection(self):
        p = project_point_on_segment(Vec2(1, 1), Vec2(0, 0), Vec2(2, 0))
        assert p == Vec2(1, 0)

    def test_clamps_to_endpoints(self):
        p = project_point_on_segment(Vec2(-5, 1), Vec2(0, 0), Vec2(2, 0))
        assert p == Vec2(0, 0)

    def test_degenerate_segment(self):
        p = project_point_on_segment(Vec2(1, 1), Vec2(3, 3), Vec2(3, 3))
        assert p == Vec2(3, 3)

    def test_distance_known(self):
        assert point_segment_distance(Vec2(1, 2), Vec2(0, 0), Vec2(2, 0)) == 2.0

    @given(vectors, nonzero_vectors)
    def test_projection_is_closest_endpointwise(self, point, delta):
        a = Vec2(0, 0)
        b = delta
        d = point_segment_distance(point, a, b)
        assert d <= point.distance_to(a) + 1e-9
        assert d <= point.distance_to(b) + 1e-9

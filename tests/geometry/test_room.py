"""Unit tests for the room model."""

import pytest

from repro.geometry.room import (
    DRYWALL,
    GLASS,
    METAL,
    Room,
    WallMaterial,
    rectangular_room,
    standard_office,
)
from repro.geometry.shapes import Circle
from repro.geometry.vectors import Vec2


class TestWallMaterial:
    def test_negative_losses_rejected(self):
        with pytest.raises(ValueError):
            WallMaterial("bad", reflection_loss_db=-1.0)
        with pytest.raises(ValueError):
            WallMaterial("bad", reflection_loss_db=1.0, penetration_loss_db=-1.0)

    def test_metal_reflects_better_than_drywall(self):
        assert METAL.reflection_loss_db < DRYWALL.reflection_loss_db

    def test_glass_partially_penetrable(self):
        assert GLASS.penetration_loss_db < DRYWALL.penetration_loss_db


class TestRoom:
    def test_needs_walls(self):
        with pytest.raises(ValueError):
            Room(walls=[])

    def test_rectangular_room_dimensions(self):
        room = rectangular_room(4.0, 3.0)
        box = room.bounding_box()
        assert box.width == pytest.approx(4.0)
        assert box.height == pytest.approx(3.0)
        assert len(room.walls) == 4

    def test_rectangular_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            rectangular_room(0.0, 5.0)

    def test_wall_lengths_sum_to_perimeter(self):
        room = rectangular_room(4.0, 3.0)
        assert sum(w.length for w in room.walls) == pytest.approx(14.0)

    def test_contains_with_margin(self):
        room = rectangular_room(5.0, 5.0)
        assert room.contains(Vec2(2.5, 2.5))
        assert room.contains(Vec2(0.4, 0.4), margin=0.3)
        assert not room.contains(Vec2(0.2, 0.2), margin=0.3)
        assert not room.contains(Vec2(6.0, 1.0))

    def test_add_occluder(self):
        room = rectangular_room(5.0, 5.0)
        room.add_occluder(Circle(Vec2(1, 1), 0.2))
        assert len(room.occluders) == 1


class TestStandardOffice:
    def test_is_5x5(self):
        room = standard_office()
        box = room.bounding_box()
        assert box.width == pytest.approx(5.0)
        assert box.height == pytest.approx(5.0)

    def test_furnished_has_occluders_and_fixtures(self):
        furnished = standard_office(furnished=True)
        bare = standard_office(furnished=False)
        assert len(furnished.occluders) == 3
        assert not bare.occluders
        assert len(furnished.walls) > len(bare.walls)

    def test_reflector_corners_are_clear_of_furniture(self):
        # The testbed mounts reflectors at these spots; furniture must
        # not swallow them (regression: the filing cabinet once did).
        room = standard_office(furnished=True)
        for spot in (Vec2(4.7, 4.7), Vec2(4.7, 0.3), Vec2(0.3, 4.7)):
            assert not any(occ.contains(spot) for occ in room.occluders)

    def test_fixtures_are_flush_on_walls(self):
        room = standard_office(furnished=True)
        box = room.bounding_box()
        for wall in room.walls[4:]:
            for endpoint in (wall.segment.a, wall.segment.b):
                on_boundary = (
                    abs(endpoint.x) < 1e-9
                    or abs(endpoint.x - box.width) < 1e-9
                    or abs(endpoint.y) < 1e-9
                    or abs(endpoint.y - box.height) < 1e-9
                )
                assert on_boundary

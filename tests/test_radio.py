"""Radio substrate tests: geometry, floor plans, propagation, testbeds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FloorPlanError
from repro.radio.bluetooth import BluetoothBeacon, BluetoothScanner
from repro.radio.floorplan import FLOOR_HEIGHT, Door, FloorPlan, Room, SlabZone
from repro.radio.geometry import (
    Point,
    count_floor_crossings,
    distance,
    floor_crossing_points,
    path_points,
    point_in_rect,
    segment_crosses_wall,
)
from repro.radio import propagation
from repro.radio.propagation import PropagationModel
from repro.radio.testbeds import (
    HOUSE_LEAK_POINT_NUMBERS,
    WalkRoute,
    apartment_testbed,
    house_testbed,
    office_testbed,
)
from repro.radio.testbeds import testbed_by_name as build_testbed


class TestGeometry:
    def test_distance_3d(self):
        assert distance(Point(0, 0, 0), Point(3, 4, 0)) == pytest.approx(5.0)
        assert distance(Point(0, 0, 0), Point(0, 0, 2)) == pytest.approx(2.0)

    def test_wall_crossing_detected(self):
        assert segment_crosses_wall(
            Point(0, 1, 1), Point(4, 1, 1), (2, 0), (2, 2), z_low=0, z_high=3,
        )

    def test_wall_missed_beside(self):
        assert not segment_crosses_wall(
            Point(0, 5, 1), Point(4, 5, 1), (2, 0), (2, 2), z_low=0, z_high=3,
        )

    def test_crossing_above_wall_does_not_count(self):
        assert not segment_crosses_wall(
            Point(0, 1, 4), Point(4, 1, 4), (2, 0), (2, 2), z_low=0, z_high=3,
        )

    def test_door_opening_passes(self):
        # Door occupies the middle half of the wall.
        assert not segment_crosses_wall(
            Point(0, 1, 1), Point(4, 1, 1), (2, 0), (2, 2),
            z_low=0, z_high=3, openings=[(0.25, 0.75)],
        )

    def test_crossing_outside_door_counts(self):
        assert segment_crosses_wall(
            Point(0, 0.2, 1), Point(4, 0.2, 1), (2, 0), (2, 2),
            z_low=0, z_high=3, openings=[(0.25, 0.75)],
        )

    def test_parallel_segment_never_crosses(self):
        assert not segment_crosses_wall(
            Point(2, 0, 1), Point(2, 2, 1), (2, 0), (2, 2), z_low=0, z_high=3,
        )

    def test_floor_crossings_counted(self):
        assert count_floor_crossings(Point(0, 0, 1), Point(0, 0, 5), [3.0]) == 1
        assert count_floor_crossings(Point(0, 0, 1), Point(0, 0, 2), [3.0]) == 0

    def test_floor_crossing_points_located(self):
        crossings = floor_crossing_points(Point(0, 0, 0), Point(4, 4, 6), [3.0])
        assert len(crossings) == 1
        x, y, h = crossings[0]
        assert (x, y, h) == (pytest.approx(2.0), pytest.approx(2.0), 3.0)

    def test_point_in_rect(self):
        assert point_in_rect(Point(1, 1, 0), 0, 0, 2, 2)
        assert not point_in_rect(Point(3, 1, 0), 0, 0, 2, 2)

    def test_path_points_endpoints(self):
        points = path_points(Point(0, 0, 0), Point(2, 0, 0), 5)
        assert len(points) == 5
        assert points[0].x == 0 and points[-1].x == 2

    def test_path_points_rejects_single(self):
        with pytest.raises(ValueError):
            path_points(Point(0, 0, 0), Point(1, 0, 0), 1)


class TestFloorPlan:
    def test_room_validation(self):
        with pytest.raises(FloorPlanError):
            Room("bad", 2, 0, 1, 5, floor=0)

    def test_duplicate_room_rejected(self):
        plan = FloorPlan("p")
        plan.add_room(Room("a", 0, 0, 1, 1, floor=0))
        with pytest.raises(FloorPlanError):
            plan.add_room(Room("a", 1, 1, 2, 2, floor=0))

    def test_room_on_invalid_floor_rejected(self):
        plan = FloorPlan("p", floor_count=1)
        with pytest.raises(FloorPlanError):
            plan.add_room(Room("up", 0, 0, 1, 1, floor=1))

    def test_grid_points_inside_room(self):
        room = Room("a", 0, 0, 4, 6, floor=0)
        for point in room.grid(3, 4):
            assert room.contains(point)

    def test_floor_of(self):
        plan = FloorPlan("p", floor_count=2)
        assert plan.floor_of(Point(0, 0, 1.0)) == 0
        assert plan.floor_of(Point(0, 0, 4.0)) == 1

    def test_walls_crossed_counts_doors(self):
        plan = FloorPlan("p")
        plan.add_room(Room("a", 0, 0, 4, 4, floor=0))
        plan.add_wall((2, 0), (2, 4), doors=(Door(0.25, 0.5),))
        through_door = plan.walls_crossed(Point(0, 1.5, 1), Point(4, 1.5, 1))
        through_wall = plan.walls_crossed(Point(0, 3.5, 1), Point(4, 3.5, 1))
        assert through_door == 0
        assert through_wall == 1

    def test_slab_zone_height_validated(self):
        plan = FloorPlan("p", floor_count=1)  # no slabs at all
        with pytest.raises(FloorPlanError):
            plan.add_slab_zone(SlabZone(0, 0, 1, 1, FLOOR_HEIGHT, 1.0))

    def test_slab_penalties_use_weak_zone(self):
        plan = FloorPlan("p", floor_count=2)
        plan.add_slab_zone(SlabZone(0, 0, 2, 2, FLOOR_HEIGHT, attenuation=1.0))
        weak = plan.slab_penalties(Point(1, 1, 1), Point(1, 1, 5), default_penalty=6.0)
        strong = plan.slab_penalties(Point(5, 5, 1), Point(5, 5, 5), default_penalty=6.0)
        assert weak == 1.0
        assert strong == 6.0

    def test_validate_catches_stray_points(self):
        plan = FloorPlan("p")
        plan.add_room(Room("a", 0, 0, 2, 2, floor=0))
        plan.add_points("a", [Point(5, 5, 1)])
        with pytest.raises(FloorPlanError):
            plan.validate()

    def test_invalid_door_interval(self):
        with pytest.raises(FloorPlanError):
            Door(0.5, 0.4)


class TestPropagation:
    @pytest.fixture
    def simple_model(self):
        plan = FloorPlan("p", floor_count=2)
        plan.add_room(Room("a", 0, 0, 10, 10, floor=0))
        plan.add_wall((5, 0), (5, 10))
        return PropagationModel(plan, seed=3)

    def test_rssi_decreases_with_distance(self, simple_model):
        tx = Point(1, 1, 1)
        near = simple_model.mean_rssi(tx, Point(2, 1, 1))
        far = simple_model.mean_rssi(tx, Point(4.5, 1, 1))
        assert near > far

    def test_wall_penalty_applies(self, simple_model):
        tx = Point(4, 5, 1)
        same_side = simple_model.mean_rssi(tx, Point(3, 5, 1))
        other_side = simple_model.mean_rssi(tx, Point(6, 5, 1))
        # Crossing the wall at x=5 costs about the wall penalty beyond
        # the distance difference.
        assert same_side - other_side > 3.0

    def test_static_shadowing_is_deterministic(self, simple_model):
        tx, rx = Point(1, 1, 1), Point(3, 3, 1)
        assert simple_model.mean_rssi(tx, rx) == simple_model.mean_rssi(tx, rx)

    def test_sample_noise_varies(self, simple_model, rng):
        tx, rx = Point(1, 1, 1), Point(3, 3, 1)
        samples = {simple_model.sample_rssi(tx, rx, rng) for _ in range(10)}
        assert len(samples) > 1

    def test_body_blocking_lowers_rssi(self, simple_model, rng):
        tx, rx = Point(1, 1, 1), Point(3, 3, 1)
        open_ = np.mean([simple_model.sample_rssi(tx, rx, rng) for _ in range(200)])
        blocked = np.mean([
            simple_model.sample_rssi(tx, rx, rng, body_blocked=True) for _ in range(200)
        ])
        assert open_ > blocked

    def test_rssi_floor_clamps(self, monkeypatch):
        plan = FloorPlan("p")
        plan.add_room(Room("a", 0, 0, 500, 500, floor=0))
        monkeypatch.setattr(propagation, "RSSI_FLOOR", -20.0)
        model = PropagationModel(plan)
        assert model.mean_rssi(Point(0, 0, 1), Point(499, 499, 1)) == -20.0

    def test_average_rssi_rejects_zero_samples(self, simple_model, rng):
        with pytest.raises(ValueError):
            simple_model.average_rssi(Point(0, 0, 1), Point(1, 1, 1), rng, samples=0)


class TestTestbeds:
    def test_house_has_78_points(self):
        assert len(house_testbed().plan.points) == 78

    def test_apartment_has_54_points(self):
        assert len(apartment_testbed().plan.points) == 54

    def test_office_has_70_points(self):
        assert len(office_testbed().plan.points) == 70

    def test_house_point_references_match_paper(self):
        tb = house_testbed()
        assert tb.plan.point(21).room_name == "living_room"
        assert tb.plan.point(25).room_name == "hallway"
        assert tb.plan.point(37).room_name == "restroom"
        assert tb.plan.point(42).room_name == "stairwell"
        assert tb.plan.point(48).room_name == "stairwell"
        for number in HOUSE_LEAK_POINT_NUMBERS:
            assert tb.plan.point(number).room_name == "bedroom_a"

    def test_house_routes_exist(self):
        tb = house_testbed()
        # Core Figure 10 routes plus the per-room Route-1 variants.
        assert {"up", "down", "route1", "route2", "route3"} <= set(tb.routes)
        variants = [name for name in tb.routes if name.startswith("route1_")]
        assert len(variants) == 4  # 5 rooms total including "route1"

    def test_stairs_ascend(self):
        tb = house_testbed()
        zs = [tb.plan.point(n).point.z for n in range(42, 49)]
        assert zs == sorted(zs)
        assert zs[-1] - zs[0] == pytest.approx(FLOOR_HEIGHT)

    def test_route_positions_move_monotonically_in_time(self):
        route = house_testbed().routes["up"]
        start = route.position_at(0.0)
        end = route.position_at(route.duration)
        assert start.z < end.z

    def test_route_position_clamps(self):
        route = house_testbed().routes["up"]
        assert route.position_at(-5.0) == route.position_at(0.0)
        before = route.position_at(route.duration)
        after = route.position_at(route.duration + 10)
        assert (before.x, before.y, before.z) == (after.x, after.y, after.z)

    def test_two_deployments_each(self):
        for name in ("house", "apartment", "office"):
            tb = build_testbed(name)
            assert len(tb.speaker_locations) == 2
            assert len(tb.speaker_rooms) == 2

    def test_legitimate_points_include_los(self):
        tb = house_testbed()
        legit = tb.legitimate_points(0)
        assert 25 in legit and 26 in legit and 27 in legit
        assert all(1 <= n <= 27 for n in legit)

    def test_unknown_testbed_rejected(self):
        with pytest.raises(FloorPlanError):
            build_testbed("castle")

    def test_all_plans_validate(self):
        for name in ("house", "apartment", "office"):
            build_testbed(name).plan.validate()

    def test_walk_route_constant_speed(self):
        route = WalkRoute("r", [Point(0, 0, 0), Point(10, 0, 0)], duration=10.0)
        assert route.position_at(5.0).x == pytest.approx(5.0)


class TestScanner:
    def test_scan_reports_asynchronously(self, sim, rng):
        tb = apartment_testbed()
        model = PropagationModel(tb.plan, seed=1)
        beacon = BluetoothBeacon("spk", tb.speaker_point(0))
        scanner = BluetoothScanner("s", model, lambda: tb.device_point(1), rng)
        samples = []
        duration = scanner.scan(sim, beacon, samples.append)
        assert scanner.SCAN_MIN <= duration <= scanner.SCAN_MAX
        assert not samples
        sim.run_for(duration + 0.01)
        assert len(samples) == 1

    def test_interference_slows_scans(self, sim, rng):
        tb = apartment_testbed()
        model = PropagationModel(tb.plan, seed=1)
        beacon = BluetoothBeacon("spk", tb.speaker_point(0))
        quiet = BluetoothScanner("q", model, lambda: tb.device_point(1),
                                 np.random.default_rng(7))
        busy = BluetoothScanner("b", model, lambda: tb.device_point(1),
                                np.random.default_rng(7),
                                interference_provider=lambda: True)
        quiet_durations = [quiet.scan(sim, beacon, lambda s: None) for _ in range(50)]
        busy_durations = [busy.scan(sim, beacon, lambda s: None) for _ in range(50)]
        assert np.mean(busy_durations) > np.mean(quiet_durations)

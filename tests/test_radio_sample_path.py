"""Exactness of a moving receiver's RSSI sample path, cheap enough for
every CI run.

A receiver that moves lands on a fresh position for almost every
sample, so the memo in front of ``mean_rssi`` misses and the scalar
path runs: the route position (``WalkRoute.position_at``) and the wall
count (``FloorPlan.walls_crossed_scalar``).  Both must reproduce their
references exactly — the one-wall ``segment_crosses_wall`` summed over
the plan's walls, and the original route formula copied below — on the
cases where float tolerances decide the answer: endpoints on a wall,
segments collinear with one, crossings at door edges and at the z
bounds.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.threshold import perimeter_route
from repro.radio.floorplan import Door, FloorPlan, Room, Wall
from repro.radio.geometry import Point, segment_crosses_wall
from repro.radio.testbeds import WalkRoute
from repro.radio.testbeds import testbed_by_name as build_testbed

TESTBEDS = {name: build_testbed(name) for name in ("house", "apartment", "office")}
EPS = 1e-9

finite = st.floats(min_value=-2.0, max_value=40.0, allow_nan=False, allow_infinity=False)


def reference_count(plan: FloorPlan, a: Point, b: Point) -> int:
    return sum(
        segment_crosses_wall(a, b, wall.start, wall.end, wall.z_low, wall.z_high,
                             [(door.u_start, door.u_end) for door in wall.doors])
        for wall in plan.walls
    )


def on_wall(wall: Wall, u: float, z: float) -> Point:
    (x0, y0), (x1, y1) = wall.start, wall.end
    return Point(x0 + (x1 - x0) * u, y0 + (y1 - y0) * u, z)


def across(wall: Wall, u: float, z_a: float, z_b: float, reach: float,
           t: float = 0.5) -> tuple:
    """A segment perpendicular to the wall, meeting it at the wall's
    parameter ``u`` and the segment's parameter ``t``."""
    (x0, y0), (x1, y1) = wall.start, wall.end
    hit = on_wall(wall, u, 0.0)
    nx, ny = -(y1 - y0) * reach, (x1 - x0) * reach
    return (Point(hit.x - nx * t, hit.y - ny * t, z_a),
            Point(hit.x + nx * (1 - t), hit.y + ny * (1 - t), z_b))


testbed_names = st.sampled_from(sorted(TESTBEDS))
door_offsets = st.sampled_from((-2 * EPS, -EPS, 0.0, EPS, 2 * EPS))


class TestWallsCrossedScalar:
    @settings(max_examples=150, deadline=None)
    @given(testbed_names, finite, finite, st.floats(0.0, 6.0), finite, finite,
           st.floats(0.0, 6.0))
    def test_random_segments(self, name, ax, ay, az, bx, by, bz):
        plan = TESTBEDS[name].plan
        a, b = Point(ax, ay, az), Point(bx, by, bz)
        assert plan.walls_crossed_scalar(a, b) == reference_count(plan, a, b)

    @settings(max_examples=150, deadline=None)
    @given(testbed_names, st.data(), st.floats(-0.5, 1.5), st.floats(-0.5, 1.5),
           st.floats(0.0, 1.0))
    def test_endpoints_on_a_wall_and_collinear(self, name, data, u_a, u_b, frac):
        plan = TESTBEDS[name].plan
        wall = data.draw(st.sampled_from(plan.walls))
        z = wall.z_low + (wall.z_high - wall.z_low) * frac
        on_a, on_b = on_wall(wall, u_a, z), on_wall(wall, u_b, z)
        off_x, off_y = data.draw(st.tuples(finite, finite))
        off = Point(off_x, off_y, z)
        # Nearly collinear: |denom| is below 1e-12 but not zero.
        (x0, y0), (x1, y1) = wall.start, wall.end
        nudged = on_b.offset(dx=-(y1 - y0) * 1e-14, dy=(x1 - x0) * 1e-14)
        for a, b in ((on_a, on_b), (on_a, off), (off, on_b), (on_a, nudged)):
            assert plan.walls_crossed_scalar(a, b) == reference_count(plan, a, b)

    @settings(max_examples=150, deadline=None)
    @given(testbed_names, st.data(), door_offsets, st.booleans(),
           st.floats(0.01, 2.0))
    def test_crossings_at_door_edges(self, name, data, offset, at_start, reach):
        plan = TESTBEDS[name].plan
        walls = [wall for wall in plan.walls if wall.doors]
        wall = data.draw(st.sampled_from(walls))
        door = data.draw(st.sampled_from(wall.doors))
        u = (door.u_start if at_start else door.u_end) + offset
        z = wall.z_low + 1.0
        a, b = across(wall, u, z, z, reach)
        assert plan.walls_crossed_scalar(a, b) == reference_count(plan, a, b)

    @settings(max_examples=150, deadline=None)
    @given(testbed_names, st.data(), st.floats(0.0, 1.0), door_offsets,
           st.booleans(), st.floats(0.01, 2.0))
    def test_segments_ending_at_a_wall(self, name, data, u, offset, at_start, reach):
        plan = TESTBEDS[name].plan
        wall = data.draw(st.sampled_from(plan.walls))
        z = wall.z_low + 1.0
        t = (0.0 if at_start else 1.0) + offset
        a, b = across(wall, u, z, z, reach, t=t)
        assert plan.walls_crossed_scalar(a, b) == reference_count(plan, a, b)

    @settings(max_examples=150, deadline=None)
    @given(testbed_names, st.data(), st.floats(0.0, 1.0), door_offsets,
           st.booleans(), st.floats(0.01, 2.0), st.booleans())
    def test_crossings_at_z_bounds(self, name, data, u, offset, at_low, reach, level):
        plan = TESTBEDS[name].plan
        wall = data.draw(st.sampled_from(plan.walls))
        z = (wall.z_low if at_low else wall.z_high) + offset
        if level:
            a, b = across(wall, u, z, z, reach)
        else:
            # A sloped path whose height at the wall is z (t = 0.5).
            a, b = across(wall, u, z - 1.0, z + 1.0, reach)
        assert plan.walls_crossed_scalar(a, b) == reference_count(plan, a, b)

    def test_rows_are_rebuilt_after_add_wall(self):
        plan = FloorPlan("rows", floor_count=1)
        plan.add_room(Room("hall", 0.0, 0.0, 10.0, 4.0, floor=0))
        plan.add_wall((3.0, 0.0), (3.0, 4.0), doors=(Door(0.4, 0.6),))
        a, b = Point(1.0, 1.0, 1.0), Point(9.0, 1.0, 1.0)
        assert plan.walls_crossed_scalar(a, b) == 1
        plan.add_wall((6.0, 0.0), (6.0, 4.0))
        assert plan.walls_crossed_scalar(a, b) == 2 == reference_count(plan, a, b)
        through_door = Point(1.0, 2.0, 1.0), Point(9.0, 2.0, 1.0)
        assert plan.walls_crossed_scalar(*through_door) == 1


def seed_position_at(route: WalkRoute, t: float) -> Point:
    """The route formula before the segment table, verbatim (it finds the
    last segment by value; no route below repeats its last segment)."""
    waypoints = list(route.waypoints)
    if len(waypoints) == 1 or route.duration <= 0:
        return waypoints[0]
    clamped = min(max(t, 0.0), route.duration)
    lengths = []
    total = 0.0
    for a, b in zip(waypoints, waypoints[1:]):
        step = ((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2) ** 0.5
        lengths.append(step)
        total += step
    if total == 0:
        return waypoints[0]
    target = total * clamped / route.duration
    walked = 0.0
    for (a, b), step in zip(zip(waypoints, waypoints[1:]), lengths):
        if walked + step >= target or (a, b) == (waypoints[-2], waypoints[-1]):
            frac = 0.0 if step == 0 else (target - walked) / step
            return a.lerp(b, min(max(frac, 0.0), 1.0))
        walked += step
    return waypoints[-1]


def every_route() -> List[WalkRoute]:
    routes = list(TESTBEDS["house"].routes.values())
    for testbed in TESTBEDS.values():
        routes.extend(perimeter_route(room) for room in testbed.plan.rooms.values()
                      if min(room.x1 - room.x0, room.y1 - room.y0) > 1.0)
    return routes


ROUTES = every_route()


class TestPositionAt:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ROUTES), st.floats(-0.5, 1.5))
    def test_matches_seed_formula(self, route, fraction):
        t = route.duration * fraction
        assert repr(route.position_at(t)) == repr(seed_position_at(route, t))

    @pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.name)
    def test_matches_seed_formula_at_ends_and_corners(self, route):
        corners = [0.0]
        for a, b in zip(route.waypoints, route.waypoints[1:]):
            corners.append(corners[-1] + ((a.x - b.x) ** 2 + (a.y - b.y) ** 2
                                          + (a.z - b.z) ** 2) ** 0.5)
        times = [route.duration * walked / corners[-1] for walked in corners]
        for t in (-1.0, *times, route.duration + 1.0):
            assert repr(route.position_at(t)) == repr(seed_position_at(route, t))

    def test_second_lap_moves(self):
        # 4 x 3 m room: 3 x 2 m inset rectangle, 10 m (10 s) per lap.
        route = perimeter_route(Room("box", 0.0, 0.0, 4.0, 3.0, floor=0), laps=2)
        assert route.duration == 20.0
        for t in (11.0, 13.5, 16.0, 18.5):
            assert route.position_at(t) == route.position_at(t - 10.0)
        assert route.position_at(11.0) == Point(1.5, 0.5, 0.0)
        assert route.position_at(20.0) == Point(0.5, 0.5, 0.0)

    def test_waypoints_are_immutable(self):
        route = WalkRoute("r", [Point(0, 0, 0), Point(4, 0, 0)], duration=4.0)
        assert route.waypoints == (Point(0, 0, 0), Point(4, 0, 0))
        with pytest.raises(AttributeError):
            route.waypoints = (Point(0, 0, 0),)

"""The paper's three evaluation testbeds.

Floor plans are reconstructed from the paper's descriptions and figures:

* **Testbed 1** — a two-floor house, 78 numbered measurement points.
  The numbering follows the paper's references: #1-24 living room (the
  first speaker deployment room), #25-27 hallway locations within line
  of sight of the speaker through the doorway, #28-36 kitchen, #37-41
  restroom (Route 2 ends at #37), #42-48 the staircase (Up traces run
  #42 -> #48), #49-62 the upstairs bedroom directly above the speaker —
  whose closest points #55, #56, #59-62 *leak* enough signal to sit
  above the RSSI threshold, the false-negative hazard that motivates
  floor-level tracking — #63-72 the second bedroom, #73-78 the upstairs
  bathroom.
* **Testbed 2** — a two-bedroom apartment, 54 points, single floor.
* **Testbed 3** — a large office, 70 points, single floor (smartwatch
  experiments).

Each testbed also carries two speaker deployment locations (the paper
evaluates both) and, for the house, the five named walking routes of
Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FloorPlanError
from repro.radio.floorplan import (
    DEVICE_CARRY_HEIGHT,
    FLOOR_HEIGHT,
    Door,
    FloorPlan,
    Room,
    SlabZone,
)
from repro.radio.geometry import Point, path_points

SPEAKER_HEIGHT = 0.8  # speakers sit on furniture

# The house's leak zone: measurement numbers the paper singles out as
# reading above the threshold from the floor above (Section V-B2).
HOUSE_LEAK_POINT_NUMBERS = (55, 56, 59, 60, 61, 62)


@dataclass(frozen=True)
class WalkRoute:
    """A named walking route (Figure 10 vocabulary).

    Immutable: ``waypoints`` is stored as a tuple and the segment table
    :meth:`position_at` walks is built once, at construction.
    """

    name: str
    waypoints: Tuple[Point, ...]  # person positions (z = floor height walked on)
    duration: float  # seconds to traverse end to end
    # The segment table: (start, end, length) for every segment but the
    # last, the last one, and the total length.
    _leading: Tuple[Tuple[Point, Point, float], ...] = field(
        init=False, repr=False, compare=False)
    _final: Optional[Tuple[Point, Point, float]] = field(
        init=False, repr=False, compare=False)
    _length: float = field(init=False, repr=False, compare=False)
    # The same table as columns for positions_at: the walked distance
    # after each leading segment, and per segment its start, its end
    # minus its start (lerp's ``other - self``), its length and the
    # distance walked before it.
    _ends: np.ndarray = field(init=False, repr=False, compare=False)
    _columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        waypoints = tuple(self.waypoints)
        segments = []
        walked = [0.0]
        for a, b in zip(waypoints, waypoints[1:]):
            step = ((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2) ** 0.5
            segments.append((a, b, step))
            walked.append(walked[-1] + step)
        object.__setattr__(self, "waypoints", waypoints)
        object.__setattr__(self, "_leading", tuple(segments[:-1]))
        object.__setattr__(self, "_final", segments[-1] if segments else None)
        object.__setattr__(self, "_length", walked[-1])
        object.__setattr__(self, "_ends", np.array(walked[1:-1], dtype=np.float64))
        object.__setattr__(self, "_columns", np.array(
            [a + (b.x - a.x, b.y - a.y, b.z - a.z, step, before)
             for (a, b, step), before in zip(segments, walked)],
            dtype=np.float64).reshape(len(segments), 8).T.copy())

    def position_at(self, t: float) -> Point:
        """Person position ``t`` seconds into the walk (clamped)."""
        if not self.waypoints:
            raise FloorPlanError(f"route {self.name!r} has no waypoints")
        if self.duration <= 0 or self._length == 0:
            return self.waypoints[0]
        clamped = min(max(t, 0.0), self.duration)
        # Constant speed along the polyline; the last segment takes any
        # remainder float rounding leaves past the others.
        target = self._length * clamped / self.duration
        walked = 0.0
        for a, b, step in self._leading:
            if walked + step >= target:
                break
            walked += step
        else:
            a, b, step = self._final
        frac = 0.0 if step == 0 else (target - walked) / step
        return a.lerp(b, min(max(frac, 0.0), 1.0))

    def positions_at(self, ts: Sequence[float]) -> np.ndarray:
        """:meth:`position_at` for every time in ``ts``, as a (3, n)
        array of x, y and z rows, with the same float expressions
        elementwise.

        The clamps become ``clip`` and the segment loop becomes a search
        of the walked distances the loop accumulates (they never
        decrease): the first leading segment whose end reaches the
        target, else the last segment.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if not self.waypoints:
            raise FloorPlanError(f"route {self.name!r} has no waypoints")
        if self.duration <= 0 or self._length == 0:
            return np.full((ts.size, 3), self.waypoints[0], dtype=np.float64).T
        target = self._length * np.clip(ts, 0.0, self.duration) / self.duration
        table = self._columns[:, np.searchsorted(self._ends, target, side="left")]
        step = table[6]
        frac = np.divide(target - table[7], step, out=np.zeros_like(target), where=step != 0)
        return table[:3] + table[3:6] * np.clip(frac, 0.0, 1.0)


@dataclass
class Testbed:
    """A floor plan plus experiment metadata."""

    name: str
    plan: FloorPlan
    speaker_locations: List[Point]
    # Room (by name) containing each speaker deployment location.
    speaker_rooms: List[str]
    routes: Dict[str, WalkRoute] = field(default_factory=dict)
    # Per-deployment points considered legitimate command spots beyond
    # the speaker's room: locations with line of sight to the speaker
    # through a doorway (the paper's hallway points #25-27 / the office
    # red box).  Keyed by deployment index.
    line_of_sight_points: Dict[int, List[int]] = field(default_factory=dict)
    stair_region: Optional[tuple] = None  # (x0, y0, x1, y1) motion-sensor zone

    def legitimate_points(self, deployment: int) -> List[int]:
        """Measurement points where issuing a command is legitimate:
        the speaker's room plus the deployment's line-of-sight spots."""
        room_name = self.speaker_rooms[deployment]
        numbers = [mp.number for mp in self.plan.points_in_room(room_name)]
        numbers.extend(self.line_of_sight_points.get(deployment, []))
        return sorted(set(numbers))

    def speaker_point(self, deployment: int) -> Point:
        """Speaker position for deployment index 0 or 1."""
        return self.speaker_locations[deployment]

    def speaker_room(self, deployment: int) -> Room:
        """The room containing a deployment's speaker."""
        return self.plan.rooms[self.speaker_rooms[deployment]]

    def device_point(self, number: int) -> Point:
        """A measurement point at device carry height."""
        return self.plan.point(number).point

    def standing_point(self, number: int) -> Point:
        """Where a person stands to carry a device at measurement point
        ``number``: the point lowered to the floor."""
        return self.device_point(number).offset(dz=-1.0)


def _grid_points(room: Room, nx: int, ny: int) -> List[Point]:
    return room.grid(nx, ny, height=DEVICE_CARRY_HEIGHT)


# ---------------------------------------------------------------------------
# Testbed 1: two-floor house
# ---------------------------------------------------------------------------

def house_testbed() -> Testbed:
    """The two-floor house (78 measurement points)."""
    plan = FloorPlan("two-floor house", floor_count=2)

    living = plan.add_room(Room("living_room", 0.0, 0.0, 6.0, 8.0, floor=0))
    plan.add_room(
        Room("stairwell", 6.0, 3.0, 8.0, 6.0, floor=0, height=2 * FLOOR_HEIGHT)
    )
    plan.add_room(Room("hallway", 6.0, 6.0, 8.0, 8.0, floor=0))
    kitchen = plan.add_room(Room("kitchen", 8.0, 4.0, 12.0, 8.0, floor=0))
    plan.add_room(Room("restroom", 8.0, 0.0, 12.0, 4.0, floor=0))
    plan.add_room(Room("bedroom_a", 0.0, 0.0, 6.0, 8.0, floor=1))
    plan.add_room(Room("landing", 6.0, 0.0, 8.0, 8.0, floor=1))
    bedroom_b = plan.add_room(Room("bedroom_b", 8.0, 3.0, 12.0, 8.0, floor=1))
    bath_up = plan.add_room(Room("bath_up", 8.0, 0.0, 12.0, 3.0, floor=1))

    # Ground-floor walls.  Wall A separates the living room from the
    # stairwell/hallway strip; its two doors create the line-of-sight
    # corridor (paper locations #25-27) and the stair access.
    plan.add_wall((6.0, 0.0), (6.0, 8.0), floor=0, doors=(
        Door(4.2 / 8.0, 5.8 / 8.0),  # living <-> stairwell (open archway)
        Door(6.4 / 8.0, 7.6 / 8.0),  # living <-> hallway (LOS doorway)
    ))
    plan.add_wall((8.0, 0.0), (8.0, 8.0), floor=0, doors=(
        Door(2.0 / 8.0, 3.0 / 8.0),  # restroom door
        Door(6.9 / 8.0, 7.9 / 8.0),  # kitchen door
    ))
    plan.add_wall((8.0, 4.0), (12.0, 4.0), floor=0)  # kitchen/restroom
    plan.add_wall((6.0, 6.0), (8.0, 6.0), floor=0, doors=(Door(0.0, 0.3),))
    plan.add_wall((6.0, 3.0), (8.0, 3.0), floor=0)

    # Upper-floor walls.
    plan.add_wall((6.0, 0.0), (6.0, 8.0), floor=1, doors=(
        Door(4.0 / 8.0, 5.2 / 8.0),  # bedroom A door
    ))
    plan.add_wall((8.0, 0.0), (8.0, 8.0), floor=1, doors=(
        Door(5.5 / 8.0, 6.5 / 8.0),  # bedroom B door
        Door(1.5 / 8.0, 2.5 / 8.0),  # bathroom door
    ))
    plan.add_wall((8.0, 3.0), (12.0, 3.0), floor=1)

    # Measurement points.  #1-24 living room.
    plan.add_points("living_room", _grid_points(living, 4, 6))
    # #25-27 hallway, placed in the doorway's line of sight.
    plan.add_points("hallway", [
        Point(6.5, 7.0, DEVICE_CARRY_HEIGHT),
        Point(7.0, 7.3, DEVICE_CARRY_HEIGHT),
        Point(7.5, 7.6, DEVICE_CARRY_HEIGHT),
    ])
    # #28-36 kitchen.
    plan.add_points("kitchen", _grid_points(kitchen, 3, 3))
    # #37-41 restroom.
    plan.add_points("restroom", [
        Point(8.8, 0.8, DEVICE_CARRY_HEIGHT),
        Point(10.0, 1.2, DEVICE_CARRY_HEIGHT),
        Point(11.2, 0.8, DEVICE_CARRY_HEIGHT),
        Point(9.4, 2.8, DEVICE_CARRY_HEIGHT),
        Point(10.8, 3.2, DEVICE_CARRY_HEIGHT),
    ])
    # #42-48: the staircase, ascending from the archway to the landing.
    stair_bottom = Point(6.3, 4.8, 0.0)
    stair_top = Point(7.7, 3.3, FLOOR_HEIGHT)
    plan.add_points("stairwell", [
        point.offset(dz=DEVICE_CARRY_HEIGHT)
        for point in path_points(stair_bottom, stair_top, 7)
    ])
    # #49-62 bedroom A.  Eight perimeter points (laterally far from the
    # speaker) then the six-point leak cluster directly above it, whose
    # numbers line up with the paper's #55, #56, #59-62.
    z_up = FLOOR_HEIGHT + DEVICE_CARRY_HEIGHT
    bedroom_a_points = [
        Point(0.7, 0.8, z_up), Point(2.9, 0.7, z_up), Point(5.2, 0.8, z_up),   # 49-51
        Point(0.6, 7.3, z_up), Point(2.9, 7.4, z_up), Point(5.3, 7.2, z_up),   # 52-54
        Point(1.8, 4.0, z_up), Point(3.2, 4.0, z_up),                          # 55-56 (leak)
        Point(5.4, 4.2, z_up), Point(0.6, 2.2, z_up),                          # 57-58
        Point(1.8, 5.0, z_up), Point(3.2, 5.0, z_up),                          # 59-60 (leak)
        Point(2.5, 4.3, z_up), Point(2.5, 5.2, z_up),                          # 61-62 (leak)
    ]
    plan.add_points("bedroom_a", bedroom_a_points)
    # #63-72 bedroom B; #73-78 upstairs bath.
    plan.add_points("bedroom_b", _grid_points(bedroom_b, 5, 2))
    plan.add_points("bath_up", _grid_points(bath_up, 3, 2))

    # The slab above the living-room corner has a utility chase/void:
    # paths piercing it are barely attenuated, which is what makes the
    # leak cluster (#55, #56, #59-62) read above the RSSI threshold.
    plan.add_slab_zone(SlabZone(1.0, 3.0, 4.0, 6.0, FLOOR_HEIGHT, attenuation=1.0))
    plan.validate()

    speaker_loc_1 = Point(2.5, 4.5, SPEAKER_HEIGHT)
    speaker_loc_2 = Point(10.0, 6.0, SPEAKER_HEIGHT)  # kitchen counter

    # Figure 10 routes.  Up/Down traverse the staircase; Route 1 wanders
    # inside one room; Routes 2 and 3 are the confusable in-floor walks.
    person_z0 = 0.0
    person_z1 = FLOOR_HEIGHT
    routes = {
        "up": WalkRoute("up", [
            Point(4.8, 4.9, person_z0),
            Point(6.3, 4.8, person_z0),
            Point(7.7, 3.3, person_z1),
            Point(7.0, 6.0, person_z1),
            Point(7.0, 7.5, person_z1),
        ], duration=8.0),
        "down": WalkRoute("down", [
            Point(7.0, 7.5, person_z1),
            Point(7.0, 6.0, person_z1),
            Point(7.7, 3.3, person_z1),
            Point(6.3, 4.8, person_z0),
            Point(4.8, 4.9, person_z0),
        ], duration=8.0),
        # Route 1: random movement within one room.  The paper collects
        # five traces in each of five rooms (25 total); each variant
        # below is one room's wander.
        "route1": WalkRoute("route1", [
            Point(1.5, 2.0, person_z0),
            Point(3.5, 6.5, person_z0),
            Point(2.0, 5.5, person_z0),
            Point(4.5, 3.0, person_z0),
        ], duration=8.0),
        "route1_kitchen": WalkRoute("route1_kitchen", [
            Point(8.7, 5.0, person_z0),
            Point(11.2, 7.3, person_z0),
            Point(9.5, 6.8, person_z0),
            Point(11.0, 5.2, person_z0),
        ], duration=8.0),
        "route1_restroom": WalkRoute("route1_restroom", [
            Point(8.8, 1.0, person_z0),
            Point(11.0, 3.2, person_z0),
            Point(9.5, 2.0, person_z0),
            Point(10.8, 0.9, person_z0),
        ], duration=8.0),
        "route1_bedroom_a": WalkRoute("route1_bedroom_a", [
            Point(1.2, 1.2, person_z1),
            Point(4.8, 6.5, person_z1),
            Point(2.2, 5.8, person_z1),
            Point(4.5, 2.0, person_z1),
        ], duration=8.0),
        "route1_bedroom_b": WalkRoute("route1_bedroom_b", [
            Point(8.8, 3.8, person_z1),
            Point(11.2, 7.2, person_z1),
            Point(9.5, 6.0, person_z1),
            Point(11.0, 4.2, person_z1),
        ], duration=8.0),
        # Route 2: #21 (living room) -> #37 (restroom), mimicking Up.
        # The walk ends with a couple of steps inside the restroom,
        # which flattens the fitted slope relative to a stair descent.
        "route2": WalkRoute("route2", [
            Point(4.0, 3.2, person_z0),
            Point(6.0, 4.6, person_z0),
            Point(7.2, 3.4, person_z0),
            Point(8.4, 2.6, person_z0),
            Point(8.8, 0.8, person_z0),
            Point(10.2, 1.4, person_z0),
        ], duration=9.5),
        # Route 3: #48 (stair top) -> #59 (leak zone), mimicking Down.
        "route3": WalkRoute("route3", [
            Point(7.7, 3.3, person_z1),
            Point(6.6, 4.4, person_z1),
            Point(4.5, 4.8, person_z1),
            Point(1.8, 5.0, person_z1),
        ], duration=8.0),
    }

    return Testbed(
        name="house",
        plan=plan,
        speaker_locations=[speaker_loc_1, speaker_loc_2],
        speaker_rooms=["living_room", "kitchen"],
        routes=routes,
        # Deployment 1: hallway points seen through the living-room
        # doorway.  Deployment 2 (kitchen): #27 faces the kitchen door.
        line_of_sight_points={0: [25, 26, 27], 1: [27]},
        stair_region=(6.0, 3.0, 8.0, 6.0),
    )


# ---------------------------------------------------------------------------
# Testbed 2: two-bedroom apartment
# ---------------------------------------------------------------------------

def apartment_testbed() -> Testbed:
    """The two-bedroom apartment (54 measurement points, one floor).

    A short hallway connects the living room to both bedrooms, the
    kitchen and the bath; the doors are offset so no room has a
    two-door sightline to another room's interior.
    """
    plan = FloorPlan("two-bedroom apartment", floor_count=1)

    living = plan.add_room(Room("living_room", 0.0, 0.0, 4.5, 8.0, floor=0))
    plan.add_room(Room("hall", 4.5, 2.5, 6.0, 5.5, floor=0))
    kitchen = plan.add_room(Room("kitchen", 4.5, 5.5, 10.0, 8.0, floor=0))
    bedroom_1 = plan.add_room(Room("bedroom_1", 6.0, 2.5, 10.0, 5.5, floor=0))
    bedroom_2 = plan.add_room(Room("bedroom_2", 6.0, 0.0, 10.0, 2.5, floor=0))
    bath = plan.add_room(Room("bath", 4.5, 0.0, 6.0, 2.5, floor=0))

    plan.add_wall((4.5, 0.0), (4.5, 8.0), floor=0, doors=(
        Door(3.6 / 8.0, 4.4 / 8.0),  # living <-> hall
    ))
    plan.add_wall((6.0, 2.5), (6.0, 5.5), floor=0, doors=(
        Door(2.3 / 3.0, 2.9 / 3.0),  # hall <-> bedroom 1 (y 4.8-5.4)
    ))
    plan.add_wall((4.5, 5.5), (10.0, 5.5), floor=0, doors=(
        Door(0.5 / 5.5, 1.3 / 5.5),  # hall <-> kitchen (x 5.0-5.8)
    ))
    plan.add_wall((4.5, 2.5), (10.0, 2.5), floor=0, doors=(
        Door(0.5 / 5.5, 1.3 / 5.5),  # hall <-> bath (x 5.0-5.8)
        Door(2.0 / 5.5, 3.0 / 5.5),  # bedroom 2 entry (x 6.5-7.5)
    ))
    plan.add_wall((6.0, 0.0), (6.0, 2.5), floor=0)  # bath / bedroom 2

    plan.add_points("living_room", _grid_points(living, 3, 6))   # 1-18
    plan.add_points("kitchen", _grid_points(kitchen, 4, 2))      # 19-26
    plan.add_points("bedroom_1", _grid_points(bedroom_1, 4, 3))  # 27-38
    plan.add_points("bedroom_2", _grid_points(bedroom_2, 4, 3))  # 39-50
    plan.add_points("bath", _grid_points(bath, 2, 2))            # 51-54
    plan.validate()

    return Testbed(
        name="apartment",
        plan=plan,
        speaker_locations=[Point(2.0, 4.0, SPEAKER_HEIGHT), Point(8.0, 4.0, SPEAKER_HEIGHT)],
        speaker_rooms=["living_room", "bedroom_1"],
        routes={},
        line_of_sight_points={0: [], 1: []},
        stair_region=None,
    )


# ---------------------------------------------------------------------------
# Testbed 3: office
# ---------------------------------------------------------------------------

def office_testbed() -> Testbed:
    """The large office (70 measurement points, one floor)."""
    plan = FloorPlan("office", floor_count=1)

    open_office = plan.add_room(Room("open_office", 0.0, 0.0, 9.0, 10.0, floor=0))
    plan.add_room(Room("corridor", 9.0, 0.0, 11.0, 10.0, floor=0))
    meeting = plan.add_room(Room("meeting_room", 11.0, 4.0, 16.0, 10.0, floor=0))
    lab = plan.add_room(Room("lab", 11.0, 0.0, 16.0, 4.0, floor=0))

    plan.add_wall((9.0, 0.0), (9.0, 10.0), floor=0, doors=(
        Door(4.5 / 10.0, 5.5 / 10.0),  # open office <-> corridor doorway
    ))
    plan.add_wall((11.0, 0.0), (11.0, 10.0), floor=0, doors=(
        Door(6.5 / 10.0, 7.4 / 10.0),  # meeting room door
        Door(1.5 / 10.0, 2.5 / 10.0),  # lab door
    ))
    plan.add_wall((11.0, 4.0), (16.0, 4.0), floor=0)  # meeting / lab

    plan.add_points("open_office", _grid_points(open_office, 5, 6))  # 1-30
    # Corridor points; #37/#38 (y = 5.0 row) face the open-office
    # doorway and are within the speaker's line of sight from the
    # first deployment location.
    corridor_points = []
    for y in (0.9, 2.6, 4.3, 5.0, 7.4, 9.1):
        for x in (9.5, 10.5):
            corridor_points.append(Point(x, y, DEVICE_CARRY_HEIGHT))
    plan.add_points("corridor", corridor_points)                 # 31-42
    plan.add_points("meeting_room", _grid_points(meeting, 4, 3))  # 43-54
    plan.add_points("lab", _grid_points(lab, 4, 4))               # 55-70
    plan.validate()

    return Testbed(
        name="office",
        plan=plan,
        speaker_locations=[Point(3.0, 5.0, SPEAKER_HEIGHT), Point(13.5, 8.5, SPEAKER_HEIGHT)],
        speaker_rooms=["open_office", "meeting_room"],
        routes={},
        line_of_sight_points={0: [37, 38], 1: []},
        stair_region=None,
    )


_BUILDERS = {
    "house": house_testbed,
    "apartment": apartment_testbed,
    "office": office_testbed,
}


def testbed_by_name(name: str) -> Testbed:
    """Build a testbed by its short name: house | apartment | office."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise FloorPlanError(
            f"unknown testbed {name!r}; choose from {sorted(_BUILDERS)}"
        ) from None

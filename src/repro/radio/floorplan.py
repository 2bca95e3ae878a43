"""Floor plans: rooms, walls with doors, measurement grids.

A :class:`FloorPlan` is a set of axis-aligned rooms on one or more
floors, a set of walls (with door openings), and a numbered grid of
measurement points — the paper numbers every location it measured
(1-78 in the house, 1-54 in the apartment, 1-70 in the office) and
refers to routes by those numbers, so the reproduction does too.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FloorPlanError
from repro.radio.geometry import (
    Point,
    WallArray,
    coordinates,
    count_floor_crossings,
    floor_crossing_points,
    point_in_rect,
)

# Wall-crossing results are memoized on exact endpoint coordinates; the
# cache is wiped wholesale when it outgrows this bound so long mobility
# simulations (every sample at a fresh position) cannot grow it without
# limit.
_CROSSING_CACHE_MAX = 1 << 16

# One wall of the scalar crossing test: start x/y, direction x/y,
# tolerance-widened z bounds and door intervals (see _rows).
_WallRow = Tuple[float, float, float, float, float, float, Tuple[Tuple[float, float], ...]]

FLOOR_HEIGHT = 3.0  # metres between storeys
DEVICE_CARRY_HEIGHT = 1.0  # phones/watches carried about a metre up


@dataclass(frozen=True)
class Door:
    """An opening in a wall, as a (start, end) interval along the wall
    expressed as fractions 0..1 of the wall's length."""

    u_start: float
    u_end: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.u_start < self.u_end <= 1.0:
            raise FloorPlanError(f"invalid door interval ({self.u_start}, {self.u_end})")


@dataclass(frozen=True)
class Wall:
    """A vertical wall: a 2-D segment extruded from z_low to z_high."""

    start: Tuple[float, float]
    end: Tuple[float, float]
    z_low: float
    z_high: float
    doors: Tuple[Door, ...] = ()


@dataclass(frozen=True)
class Room:
    """An axis-aligned room on one floor.

    ``height`` defaults to one storey; stairwells that pierce the slab
    (so their upper measurement points are still "in" the room) use a
    taller value.
    """

    name: str
    x0: float
    y0: float
    x1: float
    y1: float
    floor: int  # 0 = ground floor
    height: float = FLOOR_HEIGHT

    def __post_init__(self) -> None:
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise FloorPlanError(f"room {self.name!r} has non-positive extent")
        if self.height <= 0:
            raise FloorPlanError(f"room {self.name!r} has non-positive height")

    @property
    def z_floor(self) -> float:
        """The z coordinate of this room's floor."""
        return self.floor * FLOOR_HEIGHT

    def contains(self, point: Point) -> bool:
        """Whether a point lies inside the room's volume."""
        if not point_in_rect(point, self.x0, self.y0, self.x1, self.y1):
            return False
        return self.z_floor - 1e-9 <= point.z <= self.z_floor + self.height + 1e-9

    def center(self, height: float = DEVICE_CARRY_HEIGHT) -> Point:
        """The room's center at carrying height."""
        return Point((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2, self.z_floor + height)

    def grid(self, nx: int, ny: int, height: float = DEVICE_CARRY_HEIGHT) -> List[Point]:
        """``nx * ny`` evenly spaced interior points, row-major."""
        points = []
        for iy in range(ny):
            for ix in range(nx):
                x = self.x0 + (ix + 0.5) * (self.x1 - self.x0) / nx
                y = self.y0 + (iy + 0.5) * (self.y1 - self.y0) / ny
                points.append(Point(x, y, self.z_floor + height))
        return points


@dataclass(frozen=True)
class SlabZone:
    """A locally weak region of a floor slab (duct, void, stair opening).

    A radio path piercing the slab inside this rectangle suffers
    ``attenuation`` instead of the model's default per-floor penalty.
    The paper's house exhibits exactly this: the room directly above the
    speaker reads above the RSSI threshold (locations #55, #56, #59-62)
    while the rest of the upper floor reads far below it.
    """

    x0: float
    y0: float
    x1: float
    y1: float
    slab_height: float  # z of the slab this zone belongs to
    attenuation: float  # replaces the default floor penalty

    def covers(self, x: float, y: float, slab_height: float) -> bool:
        """Whether a slab crossing at (x, y) falls in this zone."""
        if abs(slab_height - self.slab_height) > 1e-6:
            return False
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


@dataclass(frozen=True)
class MeasurementPoint:
    """A numbered location from the paper's figures."""

    number: int
    point: Point
    room_name: str


class _Watchers(weakref.WeakSet):
    """What :meth:`FloorPlan.watch` registered, held weakly: worlds
    share a plan (the scenario pool), so a world dropped mid-trace must
    not stay reachable through it.  A pickled plan carries none."""

    def __reduce__(self) -> tuple:
        return _Watchers, ()


class FloorPlan:
    """A building: rooms + walls + numbered measurement points."""

    def __init__(self, name: str, floor_count: int = 1) -> None:
        if floor_count < 1:
            raise FloorPlanError(f"floor_count must be >= 1, got {floor_count!r}")
        self.name = name
        self.floor_count = floor_count
        self.rooms: Dict[str, Room] = {}
        self.walls: List[Wall] = []
        self.points: Dict[int, MeasurementPoint] = {}
        self.slab_zones: List[SlabZone] = []
        # Vectorized wall substrate: rebuilt lazily after wall changes.
        self._wall_array: Optional[WallArray] = None
        self._wall_rows: Optional[Tuple[_WallRow, ...]] = None
        self._floor_heights = tuple(FLOOR_HEIGHT * level for level in range(1, floor_count))
        self._crossing_cache: Dict[Tuple[float, ...], int] = {}
        self._version = 0
        self._watchers = _Watchers()

    # -- construction -----------------------------------------------------
    def add_room(self, room: Room) -> Room:
        """Add a room (unique name, valid floor)."""
        if room.name in self.rooms:
            raise FloorPlanError(f"duplicate room name {room.name!r}")
        if not 0 <= room.floor < self.floor_count:
            raise FloorPlanError(f"room {room.name!r} on invalid floor {room.floor}")
        self.rooms[room.name] = room
        return room

    def add_wall(
        self,
        start: Tuple[float, float],
        end: Tuple[float, float],
        floor: int = 0,
        doors: Tuple[Door, ...] = (),
    ) -> Wall:
        """Add a wall on ``floor`` with optional door openings."""
        z_low = floor * FLOOR_HEIGHT
        wall = Wall(start=start, end=end, z_low=z_low, z_high=z_low + FLOOR_HEIGHT, doors=doors)
        self.walls.append(wall)
        self._invalidate_geometry()
        return wall

    def add_slab_zone(self, zone: SlabZone) -> SlabZone:
        """Register a weak slab region (see :class:`SlabZone`)."""
        if zone.slab_height not in self.floor_heights:
            raise FloorPlanError(
                f"slab zone height {zone.slab_height} matches no floor slab"
            )
        self.slab_zones.append(zone)
        self._bump_version()
        return zone

    def _invalidate_geometry(self) -> None:
        self._wall_array = None
        self._wall_rows = None
        self._crossing_cache.clear()
        self._bump_version()

    def _bump_version(self) -> None:
        self._version += 1
        for watcher in list(self._watchers):
            watcher.retarget()

    def watch(self, watcher) -> None:
        """Call ``watcher.retarget()`` after every change to the walls
        or slab zones, until :meth:`unwatch` (a floor trace in flight
        recomputes the means of the samples it has still to take)."""
        self._watchers.add(watcher)

    def unwatch(self, watcher) -> None:
        """Stop calling ``watcher`` (no-op when it is not watching)."""
        self._watchers.discard(watcher)

    def add_points(self, room_name: str, points: List[Point]) -> List[MeasurementPoint]:
        """Append numbered measurement points (numbering continues)."""
        if room_name not in self.rooms:
            raise FloorPlanError(f"unknown room {room_name!r}")
        added = []
        next_number = max(self.points) + 1 if self.points else 1
        for offset, point in enumerate(points):
            mp = MeasurementPoint(next_number + offset, point, room_name)
            self.points[mp.number] = mp
            added.append(mp)
        return added

    # -- queries ------------------------------------------------------------
    @property
    def floor_heights(self) -> Tuple[float, ...]:
        """Z coordinates of the slabs between floors."""
        return self._floor_heights

    def point(self, number: int) -> MeasurementPoint:
        """Look up a numbered measurement point."""
        try:
            return self.points[number]
        except KeyError:
            raise FloorPlanError(f"{self.name} has no measurement point #{number}") from None

    def points_in_room(self, room_name: str) -> List[MeasurementPoint]:
        """Measurement points inside a room."""
        return [mp for mp in self.points.values() if mp.room_name == room_name]

    def room_of(self, point: Point) -> Optional[Room]:
        """The room containing ``point``, if any."""
        for room in self.rooms.values():
            if room.contains(point):
                return room
        return None

    def floor_of(self, point: Point) -> int:
        """Which storey a point is on (by height)."""
        level = int(point.z // FLOOR_HEIGHT)
        return max(0, min(level, self.floor_count - 1))

    @property
    def version(self) -> int:
        """Bumped whenever walls or slab zones change.

        Consumers that memoize propagation-relevant results (e.g.
        :class:`~repro.radio.propagation.PropagationModel`) compare this
        to know when their caches are stale.
        """
        return self._version

    @property
    def wall_array(self) -> WallArray:
        """The walls as a vectorized :class:`WallArray` (built lazily)."""
        if self._wall_array is None:
            self._wall_array = WallArray([
                (
                    wall.start,
                    wall.end,
                    wall.z_low,
                    wall.z_high,
                    [(door.u_start, door.u_end) for door in wall.doors],
                )
                for wall in self.walls
            ])
        return self._wall_array

    def walls_crossed(self, a: Point, b: Point) -> int:
        """Number of walls the straight path a->b penetrates.

        Results are memoized on the exact endpoint pair.  A single-pair
        miss runs the per-wall python loop: with the handful of walls a
        testbed has, numpy's fixed per-op overhead makes the vectorized
        kernel a net loss for one pair (it wins ~5x per point once a
        whole grid amortizes it — see :meth:`walls_crossed_many`).
        """
        key = a + b
        cached = self._crossing_cache.get(key)
        if cached is not None:
            return cached
        count = self.walls_crossed_scalar(a, b)
        self._remember_crossing(key, count)
        return count

    def walls_crossed_scalar(self, a: Point, b: Point) -> int:
        """Crossing count for one pair: a single loop over the wall rows.

        Per wall it evaluates the float expressions of
        :func:`~repro.radio.geometry.segment_crosses_wall` in the same
        order, with the per-wall terms (direction, tolerance-widened z
        and door bounds) taken from :meth:`_rows`, so the count equals
        ``sum(segment_crosses_wall(a, b, ...) for each wall)`` exactly.
        """
        ax, ay, az = a
        bx, by, bz = b
        rx, ry, dz = bx - ax, by - ay, bz - az
        count = 0
        for qx, qy, sx, sy, z_low, z_high, openings in self._rows():
            denom = rx * sy - ry * sx
            if abs(denom) < 1e-12:
                continue
            qpx, qpy = qx - ax, qy - ay
            t = (qpx * sy - qpy * sx) / denom
            if not -1e-9 <= t <= 1 + 1e-9:
                continue
            u = (qpx * ry - qpy * rx) / denom
            if not -1e-9 <= u <= 1 + 1e-9 or not z_low <= az + dz * t <= z_high:
                continue
            for u_low, u_high in openings:
                if u_low <= u <= u_high:
                    break
            else:
                count += 1
        return count

    def _rows(self) -> Tuple[_WallRow, ...]:
        """Per-wall terms of the crossing test, built on first use."""
        if self._wall_rows is None:
            self._wall_rows = tuple(
                (
                    wall.start[0],
                    wall.start[1],
                    wall.end[0] - wall.start[0],
                    wall.end[1] - wall.start[1],
                    wall.z_low - 1e-9,
                    wall.z_high + 1e-9,
                    tuple((door.u_start - 1e-9, door.u_end + 1e-9) for door in wall.doors),
                )
                for wall in self.walls
            )
        return self._wall_rows

    def walls_crossed_many(self, a: Point, points: Sequence[Point]) -> np.ndarray:
        """Crossing counts from ``a`` to every receiver in ``points``.

        One broadcasted (walls x points) pass; equivalent to calling
        :meth:`walls_crossed` per point.  Results land in the same
        memo the scalar entry point reads.
        """
        counts = self.wall_array.crossing_counts(a, coordinates(points))
        for rx, count in zip(points, counts):
            self._remember_crossing(a + rx, int(count))
        return counts

    def _remember_crossing(self, key: Tuple[float, ...], count: int) -> None:
        if len(self._crossing_cache) >= _CROSSING_CACHE_MAX:
            self._crossing_cache.clear()
        self._crossing_cache[key] = count

    def floors_crossed(self, a: Point, b: Point) -> int:
        """Number of slabs the segment a->b pierces."""
        return count_floor_crossings(a, b, self.floor_heights)

    def slab_penalties(self, a: Point, b: Point, default_penalty: float) -> float:
        """Total floor-slab attenuation along the path a->b.

        Each slab crossing costs ``default_penalty`` unless it pierces
        a registered weak :class:`SlabZone`, whose ``attenuation``
        applies instead.
        """
        total = 0.0
        for x, y, slab_height in floor_crossing_points(a, b, self.floor_heights):
            penalty = default_penalty
            for zone in self.slab_zones:
                if zone.covers(x, y, slab_height):
                    penalty = zone.attenuation
                    break
            total += penalty
        return total

    def slab_penalties_many(
        self, a: Point, coords: np.ndarray, default_penalty: float
    ) -> np.ndarray:
        """:meth:`slab_penalties` from ``a`` to every column of
        ``coords`` (a (3, n) array of receiver x, y and z rows),
        bit-identical.

        Per slab, only the receivers whose segment pierces it are
        evaluated, with the scalar path's float expressions; the first
        registered zone covering a pierce point wins, and each total
        sums its slabs' penalties in slab order from 0.0, as the scalar
        loop does.
        """
        ax, ay, az = a
        bz = coords[2]
        total = np.zeros(bz.size, dtype=np.float64)
        for height in self._floor_heights:
            # min(az, bz) < height < max(az, bz), split on the fixed end.
            if az < height:
                pierced = np.flatnonzero(height < bz)
            elif height < az:
                pierced = np.flatnonzero(bz < height)
            else:
                continue
            dz = bz[pierced] - az
            keep = np.abs(dz) >= 1e-12
            pierced, dz = pierced[keep], dz[keep]
            if not pierced.size:
                continue
            t = (height - az) / dz
            x = ax + (coords[0, pierced] - ax) * t
            y = ay + (coords[1, pierced] - ay) * t
            penalty = np.full(pierced.size, default_penalty, dtype=np.float64)
            for zone in reversed(self.slab_zones):
                if abs(height - zone.slab_height) > 1e-6:
                    continue
                covered = (zone.x0 <= x) & (x <= zone.x1) & (zone.y0 <= y) & (y <= zone.y1)
                penalty[covered] = zone.attenuation
            total[pierced] += penalty
        return total

    def same_room(self, a: Point, b: Point) -> bool:
        """Whether two points share a room."""
        room_a, room_b = self.room_of(a), self.room_of(b)
        return room_a is not None and room_a is room_b

    def validate(self) -> None:
        """Sanity-check plan consistency; raises on problems."""
        for number, mp in self.points.items():
            room = self.rooms.get(mp.room_name)
            if room is None or not room.contains(mp.point):
                raise FloorPlanError(
                    f"measurement point #{number} is not inside room {mp.room_name!r}"
                )

"""Minimal 3-D geometry for indoor propagation.

Walls are vertical rectangles: a 2-D segment extruded over a height
range.  The only geometric question propagation asks is: does the
straight line between transmitter and receiver cross this wall (outside
its door openings)?

Two forms of the crossing test live here: the scalar reference
(:func:`segment_crosses_wall`) and a vectorized kernel
(:class:`WallArray`) that answers the same question for every wall at
once — or for every (wall, endpoint) pair of a whole measurement grid.
The vectorized kernel applies the exact same float64 arithmetic and
tolerances as the scalar path, so crossing counts agree bit-for-bit.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np


class Point(tuple):
    """A point in metres; ``z`` is height above the ground floor.

    An immutable 3-tuple ``(x, y, z)``: the radio path builds one per
    receiver sample and hashes endpoint pairs into its memos, and a
    tuple is built, hashed and compared in C.  The hash is
    ``hash((x, y, z))``, the value the frozen dataclass this replaced
    produced, and the repr is unchanged.  Being a tuple, a point also
    equals the plain tuple ``(x, y, z)``, and ``a + b`` concatenates two
    points into the six-float endpoint-pair key the memos use.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float = 1.0) -> "Point":
        return tuple.__new__(cls, (x, y, z))

    x = property(itemgetter(0), doc="Metres along the plan's x axis.")
    y = property(itemgetter(1), doc="Metres along the plan's y axis.")
    z = property(itemgetter(2), doc="Height above the ground floor.")

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Point(x={self[0]!r}, y={self[1]!r}, z={self[2]!r})"

    def offset(self, dx: float = 0.0, dy: float = 0.0, dz: float = 0.0) -> "Point":
        """A new point displaced by (dx, dy, dz)."""
        x, y, z = self
        return tuple.__new__(Point, (x + dx, y + dy, z + dz))

    def lerp(self, other: "Point", t: float) -> "Point":
        """Linear interpolation: ``t=0`` is self, ``t=1`` is other."""
        x, y, z = self
        ox, oy, oz = other
        return tuple.__new__(Point, (x + (ox - x) * t, y + (oy - y) * t, z + (oz - z) * t))

    def xy(self) -> Tuple[float, float]:
        """The (x, y) projection."""
        return (self[0], self[1])


def distance(a: Point, b: Point) -> float:
    """Euclidean 3-D distance in metres."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def coordinates(points: Sequence[Point]) -> np.ndarray:
    """``points`` as a (3, n) array of x, y and z rows."""
    flat = np.fromiter(chain.from_iterable(points), dtype=np.float64, count=3 * len(points))
    return flat.reshape(-1, 3).T


def distances(a: Point, coords: np.ndarray) -> np.ndarray:
    """``distance(a, Point(x, y, z))`` for every column of the (3, n)
    array ``coords``, bit-identical.

    The squares are taken one element at a time with ``**``, exactly
    as :func:`distance` takes them: ``**`` is libm ``pow``, which rounds
    differently from ``v * v`` on about 1 input in 1,200, and numpy's
    ``v ** 2`` (like ``v * v``) multiplies.
    """
    dx, dy, dz = (np.array(a)[:, None] - coords).tolist()
    return np.sqrt(np.array(
        [u ** 2 + v ** 2 + w ** 2 for u, v, w in zip(dx, dy, dz)], dtype=np.float64))


def _segment_intersection_2d(
    p1: Tuple[float, float],
    p2: Tuple[float, float],
    q1: Tuple[float, float],
    q2: Tuple[float, float],
) -> Optional[Tuple[float, float]]:
    """Intersection parameters ``(t, u)`` of segments p and q, or None.

    ``t`` parametrizes p (0..1), ``u`` parametrizes q (0..1).
    Collinear overlaps return None: a ray sliding along a wall face is
    not treated as crossing it.
    """
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    sx, sy = q2[0] - q1[0], q2[1] - q1[1]
    denom = rx * sy - ry * sx
    if abs(denom) < 1e-12:
        return None
    qpx, qpy = q1[0] - p1[0], q1[1] - p1[1]
    t = (qpx * sy - qpy * sx) / denom
    u = (qpx * ry - qpy * rx) / denom
    if -1e-9 <= t <= 1 + 1e-9 and -1e-9 <= u <= 1 + 1e-9:
        return (t, u)
    return None


def segment_crosses_wall(
    a: Point,
    b: Point,
    wall_start: Tuple[float, float],
    wall_end: Tuple[float, float],
    z_low: float,
    z_high: float,
    openings: Optional[List[Tuple[float, float]]] = None,
) -> bool:
    """True if the 3-D segment a->b passes through the wall rectangle.

    ``openings`` are (u_start, u_end) intervals along the wall segment
    (0..1) that are open (doors); a crossing inside an opening does not
    count, matching the paper's line-of-sight locations seen through a
    doorway.
    """
    hit = _segment_intersection_2d(a.xy(), b.xy(), wall_start, wall_end)
    if hit is None:
        return False
    t, u = hit
    z_at_crossing = a.z + (b.z - a.z) * t
    if not (z_low - 1e-9 <= z_at_crossing <= z_high + 1e-9):
        return False
    if openings:
        for u_start, u_end in openings:
            if u_start - 1e-9 <= u <= u_end + 1e-9:
                return False
    return True


def count_floor_crossings(a: Point, b: Point, floor_heights: List[float]) -> int:
    """Number of floor slabs the segment a->b passes through.

    ``floor_heights`` are the z coordinates of slabs above the ground
    floor (e.g. ``[3.0]`` for a two-storey house).
    """
    z_low, z_high = min(a.z, b.z), max(a.z, b.z)
    return sum(1 for h in floor_heights if z_low < h < z_high)


def floor_crossing_points(
    a: Point, b: Point, floor_heights: List[float]
) -> List[Tuple[float, float, float]]:
    """Where the segment a->b pierces each floor slab.

    Returns ``(x, y, slab_height)`` triples, one per crossed slab — the
    propagation model uses the pierce position to apply locally weaker
    slab attenuation (ducts, voids, stair openings).
    """
    crossings: List[Tuple[float, float, float]] = []
    if abs(b.z - a.z) < 1e-12:
        return crossings
    z_low, z_high = min(a.z, b.z), max(a.z, b.z)
    for height in floor_heights:
        if z_low < height < z_high:
            t = (height - a.z) / (b.z - a.z)
            crossings.append((a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t, height))
    return crossings


def point_in_rect(point: Point, x0: float, y0: float, x1: float, y1: float) -> bool:
    """2-D containment test (z ignored)."""
    return x0 - 1e-9 <= point.x <= x1 + 1e-9 and y0 - 1e-9 <= point.y <= y1 + 1e-9


def path_points(a: Point, b: Point, count: int) -> List[Point]:
    """``count`` evenly spaced points from a to b inclusive."""
    if count < 2:
        raise ValueError(f"need at least 2 points, got {count!r}")
    return [a.lerp(b, i / (count - 1)) for i in range(count)]


class WallArray:
    """All of a floor plan's walls as numpy columns.

    Answers :func:`segment_crosses_wall` for every wall at once
    (:meth:`crossing_mask`) or for every (wall, receiver) pair of a
    measurement grid or a trace (:meth:`crossing_counts`).  The arithmetic
    mirrors the scalar reference operation-for-operation — same float64
    products, same division, same ``1e-12`` / ``1e-9`` tolerances — so
    the resulting crossing counts are identical, not merely close.

    Walls are static once a plan is built; the owning
    :class:`~repro.radio.floorplan.FloorPlan` rebuilds the array when a
    wall is added.
    """

    def __init__(
        self,
        walls: Sequence[
            Tuple[Tuple[float, float], Tuple[float, float], float, float,
                  Sequence[Tuple[float, float]]]
        ],
    ) -> None:
        count = len(walls)
        self.count = count
        self.qx = np.array([w[0][0] for w in walls], dtype=np.float64)
        self.qy = np.array([w[0][1] for w in walls], dtype=np.float64)
        ex = np.array([w[1][0] for w in walls], dtype=np.float64)
        ey = np.array([w[1][1] for w in walls], dtype=np.float64)
        # Wall direction vector s = end - start (the scalar path's s).
        self.sx = ex - self.qx
        self.sy = ey - self.qy
        self.z_low = np.array([w[2] for w in walls], dtype=np.float64)
        self.z_high = np.array([w[3] for w in walls], dtype=np.float64)
        # Door openings are rare and ragged; keep them as a sparse list
        # of (wall_index, openings) applied after the dense test.
        self.door_walls: List[Tuple[int, Tuple[Tuple[float, float], ...]]] = [
            (index, tuple(w[4])) for index, w in enumerate(walls) if w[4]
        ]
        # Column forms for the (walls x receivers) kernel, with the
        # tolerance-widened z bounds folded in.
        self._sx = self.sx[:, None]
        self._sy = self.sy[:, None]
        self._z_low = self.z_low[:, None] - 1e-9
        self._z_high = self.z_high[:, None] + 1e-9

    def crossing_mask(self, a: Point, b: Point) -> np.ndarray:
        """Boolean mask of walls penetrated by the 3-D segment a->b."""
        if self.count == 0:
            return np.zeros(0, dtype=bool)
        rx, ry = b.x - a.x, b.y - a.y
        qpx = self.qx - a.x
        qpy = self.qy - a.y
        denom = rx * self.sy - ry * self.sx
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qpx * self.sy - qpy * self.sx) / denom
            u = (qpx * ry - qpy * rx) / denom
            z = a.z + (b.z - a.z) * t
        ok = (
            (np.abs(denom) >= 1e-12)
            & (t >= -1e-9) & (t <= 1 + 1e-9)
            & (u >= -1e-9) & (u <= 1 + 1e-9)
            & (z >= self.z_low - 1e-9) & (z <= self.z_high + 1e-9)
        )
        for index, openings in self.door_walls:
            if ok[index]:
                through = u[index]
                for u_start, u_end in openings:
                    if u_start - 1e-9 <= through <= u_end + 1e-9:
                        ok[index] = False
                        break
        return ok

    def crossing_counts(self, a: Point, coords: np.ndarray) -> np.ndarray:
        """Crossing counts from ``a`` to each receiver, as one matrix op.

        ``coords`` holds the receivers as a (3, n) array of x, y and z
        rows.  Returns an int64 array aligned with its columns; entry
        *i* equals ``sum(segment_crosses_wall(a, receiver_i, wall) for
        wall in walls)``.
        """
        n = coords.shape[1]
        if self.count == 0 or n == 0:
            return np.zeros(n, dtype=np.int64)
        ax, ay, az = a
        qpx = (self.qx - ax)[:, None]  # (m, 1)
        qpy = (self.qy - ay)[:, None]
        rx = coords[0] - ax  # (n,)
        ry = coords[1] - ay
        denom = rx * self._sy - ry * self._sx  # (m, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qpx * self._sy - qpy * self._sx) / denom
            u = (qpx * ry - qpy * rx) / denom
            z = az + (coords[2] - az) * t
        ok = (
            (np.abs(denom) >= 1e-12)
            & (t >= -1e-9) & (t <= 1 + 1e-9)
            & (u >= -1e-9) & (u <= 1 + 1e-9)
            & (z >= self._z_low) & (z <= self._z_high)
        )
        for index, openings in self.door_walls:
            row = ok[index]
            if not row.any():
                continue
            through = u[index]
            for u_start, u_end in openings:
                row &= ~((through >= u_start - 1e-9) & (through <= u_end + 1e-9))
            ok[index] = row
        return ok.sum(axis=0, dtype=np.int64)

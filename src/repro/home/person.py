"""People and their movement.

A :class:`Person` has a position in the floor plan, a voiceprint, and
optionally a walk in progress.  Positions are computed lazily from the
active walk and the simulated clock — the simulation does not tick
every person every frame.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.audio.voiceprint import UtteranceSource, VoicePrint, VoiceUtterance, live_utterance
from repro.radio.floorplan import DEVICE_CARRY_HEIGHT
from repro.radio.geometry import Point
from repro.radio.testbeds import WalkRoute
from repro.sim.simulator import Simulator

# Device positions as a (3, n) array of x, y and z rows.
_NO_COORDINATES = np.empty((3, 0))
# Point.offset(dz=DEVICE_CARRY_HEIGHT), column-wise.
_CARRY_OFFSET = np.array([[0.0], [0.0], [DEVICE_CARRY_HEIGHT]])
# How often the carrier's body shadows the radio path.
BODY_BLOCKED_PROBABILITY = 0.25


class Person:
    """A human in the home: owner, family member, or guest."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        rng: np.random.Generator,
        start: Point,
        is_owner: bool = True,
    ) -> None:
        self.name = name
        self.sim = sim
        self.is_owner = is_owner
        self._rng = rng
        self.voiceprint = VoicePrint.create(name, rng)
        self._anchor = start
        self._walk: Optional[WalkRoute] = None
        self._walk_started = 0.0
        self._movement_listeners: list = []
        # Floor traces in flight on this person's devices, in start
        # order: they defer draws on this person's stream and their
        # devices' (repro.home.devices), and their means follow moves.
        self._traces: list = []

    # -- position ---------------------------------------------------------
    @property
    def position(self) -> Point:
        """Current feet position (z = the floor level being walked)."""
        if self._walk is not None:
            elapsed = self.sim.now - self._walk_started
            if elapsed >= self._walk.duration:
                self._anchor = self._walk.waypoints[-1]
                self._walk = None
            else:
                return self._walk.position_at(elapsed)
        return self._anchor

    def device_position(self) -> Point:
        """Where a carried device sits (about a metre above the feet)."""
        return self.position.offset(dz=DEVICE_CARRY_HEIGHT)

    def device_path(self, times: Sequence[float]) -> Tuple[np.ndarray, Point]:
        """Where a carried device will be at ``times`` (ascending, none
        before now) if no move starts before then.

        Returns ``(walking, still)``.  The first ``walking.shape[1]``
        times fall inside the current walk and map to the columns (x, y
        and z rows) of its vectorized
        :meth:`~repro.radio.testbeds.WalkRoute.positions_at`; every
        later time (all of them for a person standing still) maps to
        the one point ``still``.  Each position equals
        :meth:`device_position` read at that time: the same walk
        expressions, the same last waypoint once the walk is over, the
        same ``offset(dz=DEVICE_CARRY_HEIGHT)``.
        """
        walk = self._walk
        if walk is None:
            return _NO_COORDINATES, self._anchor.offset(dz=DEVICE_CARRY_HEIGHT)
        started = self._walk_started
        elapsed = [t - started for t in times]
        walking = walk.positions_at(elapsed[:bisect_left(elapsed, walk.duration)])
        still = walk.waypoints[-1].offset(dz=DEVICE_CARRY_HEIGHT)
        return walking + _CARRY_OFFSET, still

    def body_blocks_radio(self) -> bool:
        """Whether the carrier's body currently shadows the radio path.

        Orientation is not tracked; the body blocks the path roughly a
        quarter of the time, matching the measurement procedure of the
        paper (4 orientations per location).
        """
        self._settle_traces()
        return bool(self._rng.random() < BODY_BLOCKED_PROBABILITY)

    def _body_blocks_radio_many(self, count: int) -> np.ndarray:
        """``count`` answers of :meth:`body_blocks_radio` in one draw:
        ``random(count)`` replays ``count`` scalar ``random()`` calls."""
        return self._rng.random(count) < BODY_BLOCKED_PROBABILITY

    def _settle_traces(self) -> None:
        """Take every sample the floor traces on this person's devices
        have deferred and are due by now: run before any other draw on
        this person's stream or on one of those devices' streams."""
        if self._traces:
            self._traces[0].settle()

    # -- movement ---------------------------------------------------------
    def add_movement_listener(self, listener) -> None:
        """Call ``listener()`` whenever this person starts a move.

        Lazily evaluated positions mean nothing in the simulation ticks
        while a person stands still; sleepy observers (the gated motion
        sensor) use this hook to wake up only when positions can change
        again.
        """
        self._movement_listeners.append(listener)

    def teleport(self, point: Point) -> None:
        """Place the person at ``point`` immediately (workload setup)."""
        self._walk = None
        self._anchor = point
        for trace in self._traces:
            trace.retarget()
        for listener in self._movement_listeners:
            listener()

    def follow(self, route: WalkRoute) -> None:
        """Begin walking ``route`` now; position interpolates over time."""
        self._walk = route
        self._walk_started = self.sim.now
        for trace in self._traces:
            trace.retarget()
        for listener in self._movement_listeners:
            listener()

    @property
    def walking(self) -> bool:
        """Whether a walk is currently in progress."""
        return self._walk is not None and (self.sim.now - self._walk_started) < self._walk.duration

    # -- speech -----------------------------------------------------------
    def speak(
        self,
        text: str,
        duration: float,
        source: Optional[UtteranceSource] = None,
    ) -> VoiceUtterance:
        """Produce a live utterance in this person's voice."""
        if source is None:
            source = UtteranceSource.LIVE_OWNER if self.is_owner else UtteranceSource.LIVE_GUEST
        self._settle_traces()
        return live_utterance(text, duration, self.voiceprint, self._rng, source=source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        p = self.position
        return f"Person({self.name!r} at ({p.x:.1f}, {p.y:.1f}, {p.z:.1f}))"

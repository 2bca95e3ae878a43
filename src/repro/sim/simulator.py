"""The simulator facade: clock + event queue + run loop."""

from __future__ import annotations

from heapq import heappop
from math import inf
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventHandle, EventQueue

# The simulators firing an event now, innermost last.  Kept off the
# Simulator, so a world pickled during an event pickles as it would
# between runs.
_FIRING: List["Simulator"] = []


class Simulator:
    """Drives a discrete-event simulation.

    Components hold a reference to the simulator and use
    :meth:`schedule` / :meth:`schedule_at` to arrange future work
    (:meth:`post` / :meth:`post_at` when no cancellation handle is
    needed).  The experiment driver then calls :meth:`run` (to drain
    all events) or :meth:`run_until` (to advance to a deadline).

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (2.5, ['hello'])
    """

    def __init__(self, start: float = 0.0) -> None:
        self._clock = SimClock(start)
        self._queue = EventQueue()
        self._running = False
        # The deadline of the run_until call now running, which a
        # callback that advances several periods in one step (see
        # repro.speakers.idle) must not pass: the caller acts between
        # calls.  -inf under an event budget; once a call returns it
        # equals the clock, so step() and run() never see it ahead.
        self._until = -inf

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock._now

    @property
    def firing(self) -> bool:
        """Whether :meth:`step` or :meth:`run_until` is firing one of
        this simulator's events right now (as opposed to the caller
        acting between runs): whether an event at exactly :attr:`now`
        has fired yet depends on it."""
        return self in _FIRING

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay!r} s in the past")
        return self._queue.push(self._clock._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._clock._now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, which is before now ({self.now:.6f})"
            )
        return self._queue.push(time, callback, args)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Like :meth:`schedule` but fire-and-forget: no handle, not
        cancellable.  The cheap path for high-volume internal events
        (packet deliveries, scheduled sends)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay!r} s in the past")
        self._queue.post(self._clock._now + delay, callback, args)

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Like :meth:`schedule_at` but fire-and-forget (no handle)."""
        if time < self._clock._now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, which is before now ({self.now:.6f})"
            )
        self._queue.post(time, callback, args)

    def step(self) -> bool:
        """Fire the next event, advancing the clock.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty.
        """
        entry = self._queue.pop_entry()
        if entry is None:
            return False
        self._clock.advance_to(entry[0])
        _FIRING.append(self)
        try:
            entry[1](*entry[2])
        finally:
            _FIRING.pop()
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fired).

        Returns the number of events fired.  ``max_events`` guards
        against accidentally unbounded simulations (e.g. a periodic
        task that is never stopped).
        """
        fired = 0
        while max_events is None or fired < max_events:
            if not self.step():
                break
            fired += 1
        return fired

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events scheduled at or before ``time``; then advance to it.

        The clock always ends exactly at ``time`` even if the queue is
        empty, so periodic measurements can rely on the deadline.

        The heap is popped inline, one entry shape at a time (see
        :mod:`repro.sim.events`): this loop runs once per simulated
        event, so it pays no per-event helper call or result tuple.
        Cancelled entries at the head are discarded even past ``time``,
        and ``len(queue)`` stays exact throughout, as with :meth:`step`.
        """
        clock = self._clock
        if time < clock._now:
            raise SimulationError(
                f"run_until({time:.6f}) is before now ({self.now:.6f})"
            )
        queue = self._queue
        # The queue compacts in place, so this alias stays valid while
        # callbacks cancel events.
        heap = queue._heap
        budget = -1 if max_events is None else max(max_events, 0)
        self._until = time if max_events is None else -inf
        fired = 0
        _FIRING.append(self)
        try:
            while fired != budget and heap:
                head = heap[0]
                event = head[2]
                if event is None:
                    if head[0] > time:
                        break
                    heappop(heap)
                    queue._live -= 1
                    # The heap pops in time order and never yields past
                    # events, so advance_to's monotonicity check is redundant.
                    clock._now = head[0]
                    head[3](*head[4])
                elif event.cancelled:
                    heappop(heap)
                    event._in_queue = False
                    queue._dead -= 1
                    continue
                else:
                    if head[0] > time:
                        break
                    heappop(heap)
                    event._in_queue = False
                    queue._live -= 1
                    clock._now = head[0]
                    event.callback(*event.args)
                fired += 1
        finally:
            _FIRING.pop()
        clock.advance_to(time)
        return fired

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Convenience wrapper: :meth:`run_until` ``now + duration``."""
        return self.run_until(self._clock._now + duration, max_events=max_events)

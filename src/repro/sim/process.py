"""Higher-level scheduling helpers built on the simulator.

:class:`DeadlineTimer` is a one-shot timer whose deadline can be bumped
without heap traffic, used for TCP retransmission and keepalive
deadlines and speaker heartbeats.  :class:`PeriodicTask` re-schedules
itself at a fixed interval, used for RSSI sampling during trace
recording.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


class DeadlineTimer:
    """A one-shot timer whose deadline can be *bumped* without touching
    the event heap.

    A restartable timer that cancels and re-pushes a heap entry every
    time strands, on a per-packet timer (TCP retransmission,
    keepalive), one dead event per packet — the timer-churn leak.  A
    :class:`DeadlineTimer` instead just stores the new deadline: when
    the already-queued event fires early it quietly re-arms itself for
    the remaining interval.  Pushing a new heap entry is only needed
    when the deadline moves *earlier* than the pending event, which
    per-packet timers (that only ever postpone) never do.

    The callback runs exactly once per scheduled deadline, at exactly
    the deadline, so observable behaviour matches a cancel + re-push
    timer; only the heap traffic differs.

    Wakeups are handle-free heap entries, pushed here directly rather
    than through :meth:`Simulator.post_at` (a per-packet timer pays for
    every frame): the timer never allocates an
    :class:`~repro.sim.events.Event` or an
    :class:`~repro.sim.events.EventHandle`, and cancellation never
    touches the heap.  ``_next_fire`` tracks the earliest outstanding
    wakeup; any wakeup that arrives while disarmed (or before a bumped
    deadline) is a cheap no-op.
    """

    __slots__ = ("_sim", "_callback", "_deadline", "_next_fire")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._deadline: Optional[float] = None
        self._next_fire: Optional[float] = None

    @property
    def armed(self) -> bool:
        """Whether a deadline is pending."""
        return self._deadline is not None

    @property
    def deadline(self) -> Optional[float]:
        """The pending expiry time, or ``None`` when disarmed."""
        return self._deadline

    def schedule_at(self, deadline: float) -> None:
        """Arm (or bump) the timer to expire at absolute ``deadline``."""
        self._deadline = deadline
        next_fire = self._next_fire
        if next_fire is None or next_fire > deadline:
            # No outstanding wakeup covers the new deadline; post one.
            # (A wakeup made redundant by an earlier one stays queued
            # and no-ops — cheaper than cancelling it out of the heap.)
            sim = self._sim
            if deadline < sim._clock._now:
                raise SimulationError(
                    f"cannot schedule at {deadline:.6f}, which is before now "
                    f"({sim.now:.6f})"
                )
            self._next_fire = deadline
            queue = sim._queue
            seq = queue._next_seq
            queue._next_seq = seq + 1
            heappush(queue._heap, (float(deadline), seq, None, self._fire, ()))
            queue._live += 1
        # Otherwise the pending (earlier) wakeup will fire and lazily
        # re-arm for the remainder — the zero-heap-traffic hot path.

    def schedule_in(self, delay: float) -> None:
        """Arm (or bump) the timer to expire ``delay`` seconds from now."""
        self.schedule_at(self._sim.now + delay)

    def cancel(self) -> None:
        """Disarm (idempotent).  The pending wakeup, if any, becomes a
        no-op instead of being cancelled out of the heap."""
        self._deadline = None

    def _fire(self) -> None:
        now = self._sim._clock._now
        next_fire = self._next_fire
        if next_fire is not None and next_fire <= now:
            self._next_fire = None
        deadline = self._deadline
        if deadline is None:
            return
        if deadline > now:
            # Bumped since this wakeup was queued: re-arm for the rest.
            if self._next_fire is None:
                self._next_fire = deadline
                queue = self._sim._queue
                seq = queue._next_seq
                queue._next_seq = seq + 1
                heappush(queue._heap, (float(deadline), seq, None, self._fire, ()))
                queue._live += 1
            return
        self._deadline = None
        self._callback()


class PeriodicTask:
    """Runs ``callback(now)`` every ``period`` seconds until stopped.

    The first invocation happens ``first_delay`` seconds after
    :meth:`start` (defaulting to one full period).

    Ticks are handle-free :meth:`Simulator.post` entries, which take
    their sequence number exactly where :meth:`Simulator.schedule`
    would, so event order is that of a cancellable chain.  Nothing is
    cancelled: :meth:`stop` only marks the task stopped, and each
    :meth:`start` opens a new *generation*; a tick of an older
    generation still in the queue is a no-op, so stopping and
    restarting, from anywhere, never leaves two live chains.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[float], None],
        first_delay: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be > 0, got {period!r}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._first_delay = period if first_delay is None else float(first_delay)
        self._generation = 0
        self._stopped = True
        self.fire_count = 0

    @property
    def running(self) -> bool:
        """Whether the task is firing."""
        return not self._stopped

    def start(self) -> None:
        """Begin periodic firing; a no-op if already running."""
        if self._stopped:
            self._stopped = False
            self._generation += 1
            self._sim.post(self._first_delay, self._tick, self._generation)

    def stop(self) -> None:
        """Stop firing.  Safe to call from inside the callback."""
        self._stopped = True

    def _tick(self, generation: int) -> None:
        if self._stopped or generation != self._generation:
            return
        self.fire_count += 1
        self._callback(self._sim.now)
        if not self._stopped and generation == self._generation:
            self._sim.post(self._period, self._tick, generation)

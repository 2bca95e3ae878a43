"""Higher-level scheduling helpers built on the simulator.

:class:`DeadlineTimer` is a one-shot timer whose deadline can be bumped
without heap traffic, used for TCP retransmission and keepalive
deadlines and speaker heartbeats.
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


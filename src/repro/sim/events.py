"""Event queue for the discrete-event kernel.

Events are ordered by ``(time, sequence)`` where ``sequence`` is a
monotonically increasing tie-breaker, so two events scheduled for the
same instant fire in the order they were scheduled.  Cancellation is
lazy: a cancelled event stays in the heap but is skipped when popped.

:class:`EventQueue` heap entries are plain tuples, so ordering is
resolved by C-level tuple comparison, and two entry shapes coexist:

``(time, seq, event)``
    a cancellable entry carrying an :class:`Event` (returned as an
    :class:`EventHandle` from :meth:`push`);
``(time, seq, None, callback, args)``
    a handle-free entry from :meth:`post` for the fire-and-forget
    majority (packet deliveries, scheduled sends), which skips both the
    ``Event`` and the ``EventHandle`` allocation.  The per-packet hot
    paths (``Network.send`` and ``DeadlineTimer``) and a floor trace's
    per-sample tick push this shape themselves, exactly as :meth:`post`
    does: take ``_next_seq``, bump it, push a float time, and add one
    to ``_live``.

The sequence field is unique, so comparisons never reach the third
element and the two shapes can share one heap.

Dead entries no longer accumulate: when cancelled entries outnumber
live ones the queue *compacts*, rebuilding the heap without them — so a
timer-churn workload (cancel + re-push per packet) keeps
``len(queue._heap)`` within a small constant factor of ``len(queue)``
instead of stranding one dead event per packet.

The queue keeps an incremental count of live (scheduled, uncancelled)
events, so ``len(queue)`` — and therefore
:attr:`repro.sim.simulator.Simulator.pending_events` — is O(1) instead
of a scan of the whole heap.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional, Tuple

from repro.errors import SimulationError

Callback = Callable[..., None]

# Compaction only kicks in once this many dead entries accumulated, so
# tiny queues never pay a rebuild for a handful of cancels.
_COMPACT_MIN_DEAD = 8


class Event:
    """A scheduled callback.

    The queue orders events by their heap entry's ``(time, sequence)``;
    the event itself is never compared.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled", "_in_queue")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callback,
        args: Tuple[Any, ...] = (),
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self._in_queue = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(time={self.time!r}, sequence={self.sequence}, {state})"


class EventHandle:
    """Opaque handle returned by scheduling calls; supports cancellation."""

    __slots__ = ("_event", "_queue")

    def __init__(self, event: Event, queue=None) -> None:
        self._event = event
        self._queue = queue

    @property
    def time(self) -> float:
        """The simulated time the event is scheduled for."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        event = self._event
        if event.cancelled:
            return
        event.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled(event)


class EventQueue:
    """A tuple-entry heap of pending events with an O(1) live count."""

    __slots__ = ("_heap", "_next_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: list = []
        self._next_seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    # -- scheduling -----------------------------------------------------
    def push(self, time: float, callback: Callback, args: Tuple[Any, ...] = ()) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Returns a cancellable :class:`EventHandle`.
        """
        if not callable(callback):
            raise SimulationError(f"event callback must be callable, got {callback!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time=float(time), sequence=seq, callback=callback, args=args)
        event._in_queue = True
        heapq.heappush(self._heap, (event.time, seq, event))
        self._live += 1
        return EventHandle(event, self)

    def post(self, time: float, callback: Callback, args: Tuple[Any, ...] = ()) -> None:
        """Schedule ``callback(*args)`` with no handle (not cancellable).

        The fire-and-forget fast path: one tuple on the heap, no
        :class:`Event`, no :class:`EventHandle`.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (float(time), seq, None, callback, args))
        self._live += 1

    # -- inspection -----------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[2]
            if event is None or not event.cancelled:
                return head[0]
            heapq.heappop(heap)
            event._in_queue = False
            self._dead -= 1
        return None

    # -- dispatch -------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty.

        Handle-free entries are wrapped in a transient :class:`Event`
        so callers see one uniform type.
        """
        heap = self._heap
        while heap:
            head = heapq.heappop(heap)
            event = head[2]
            if event is None:
                self._live -= 1
                return Event(head[0], head[1], head[3], head[4])
            if event.cancelled:
                event._in_queue = False
                self._dead -= 1
                continue
            event._in_queue = False
            self._live -= 1
            return event
        return None

    def pop_entry(self) -> Optional[Tuple[float, Callback, Tuple[Any, ...]]]:
        """Pop the next live entry as ``(time, callback, args)``."""
        heap = self._heap
        while heap:
            head = heapq.heappop(heap)
            event = head[2]
            if event is None:
                self._live -= 1
                return (head[0], head[3], head[4])
            if event.cancelled:
                event._in_queue = False
                self._dead -= 1
                continue
            event._in_queue = False
            self._live -= 1
            return (head[0], event.callback, event.args)
        return None

    def _reseat(self, stale: list, fresh: list, next_seq: int) -> None:
        """Take the live handle-free entries ``stale`` off the heap, push
        ``fresh`` ones and number on from ``next_seq``: for a caller
        that advanced the world past events it never queued (see
        repro.speakers.idle), re-queueing what would be pending under
        the keys it would have had."""
        heap = self._heap
        gone = {id(entry) for entry in stale}
        # In place, as in _compact.
        heap[:] = [entry for entry in heap if id(entry) not in gone]
        heapq.heapify(heap)
        for entry in fresh:
            heapq.heappush(heap, entry)
        self._live += len(fresh) - len(stale)
        self._next_seq = next_seq

    # -- cancellation bookkeeping --------------------------------------
    def _note_cancelled(self, event: Event) -> None:
        """Keep the live count exact when a queued event is cancelled.

        Cancelling an event that already fired (or was popped, or was
        removed by a compaction) must not decrement: it was accounted
        for when it left the heap.
        """
        if event._in_queue:
            self._live -= 1
            self._dead += 1
            if self._dead > self._live and self._dead >= _COMPACT_MIN_DEAD:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without dead entries.

        Triggered when dead entries outnumber live ones, so the rebuild
        removes at least half the heap and the amortized cost per
        cancellation stays O(log n).  Removed events are marked as out
        of the queue, keeping :meth:`_note_cancelled` exact even if the
        same handle is cancelled again after the compaction.
        """
        heap = self._heap
        kept = []
        for entry in heap:
            event = entry[2]
            if event is not None and event.cancelled:
                event._in_queue = False
            else:
                kept.append(entry)
        # In place: Simulator.run_until holds the heap list while the
        # callbacks it fires cancel events.
        heap[:] = kept
        heapq.heapify(heap)
        self._dead = 0


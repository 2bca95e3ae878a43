"""Host-speed sampling, to take a shared host's speed swings out of timings.

On a shared machine the same single-threaded Python code runs anywhere
from 1x to 2x its uncontended time, in phases that last from a few
milliseconds to minutes, and the simulator slows with it.  While a timed
call runs, :class:`HostSpeed` interrupts it every
:data:`SAMPLE_INTERVAL_S` with ``SIGALRM`` and times a fixed loop in
thread CPU time (so waiting for a CPU does not count, but running
slowly on one does).  The loop first runs a short untimed warm-up, so
that what the interrupted call left in the caches barely moves the
timed part.  The call's *scaled* time is its wall time, minus the
sampling itself, times :data:`REFERENCE_LOOP_S` over the mean loop
time: the wall time the call would take on the reference host.

With ``workers`` set, the work runs in pool processes forked during the
call, so those processes are sampled instead: a fork hook starts the
same sampler in each of them, and each writes its totals to its own slot
of shared memory (no lock, so a handler can never wait on another).  No
simulation state is touched; the handlers only run a local loop.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from typing import List, Optional

LOOP_ITERATIONS = 2_500
WARMUP_ITERATIONS = 250
# The timed loop's thread CPU time on an uncontended 2.1 GHz x86-64 core
# under CPython 3.11: scaled times are wall times on that host.
REFERENCE_LOOP_S = 0.000_20
SAMPLE_INTERVAL_S = 0.005
MAX_WORKER_SLOTS = 16  # forks beyond this share slots (workers <= nproc)

_active: Optional["HostSpeed"] = None  # the sampler forked children join
_fork_hook_installed = False


def loop_time() -> float:
    """Thread CPU seconds of one fixed dict-heavy loop, after a warm-up."""
    table = {}
    for i in range(WARMUP_ITERATIONS):
        table[i & 255] = i
    table.clear()
    start = time.thread_time()
    for i in range(LOOP_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + i
    return time.thread_time() - start


def _count_fork() -> None:
    speed = _active
    if speed is not None and speed._shared is not None:
        speed._forks += 1  # the child inherits the new count as its slot


def _start_in_forked_child() -> None:
    speed = _active
    if speed is None or speed._shared is None:
        return
    shared = speed._shared
    base = 3 * ((speed._forks - 1) % MAX_WORKER_SLOTS)
    busy = [False]

    def sample(signum, frame) -> None:
        if busy[0]:  # a nested interrupt: skip it
            return
        busy[0] = True
        begin = time.perf_counter()
        loop = loop_time()
        shared[base] += loop
        shared[base + 1] += 1
        shared[base + 2] += time.perf_counter() - begin
        busy[0] = False

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)


class HostSpeed:
    """Context manager sampling host speed during the ``with`` block.

    One sample is also taken on entry and one on exit (outside any
    timing the caller does between them), so short blocks get two.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = workers
        self.samples: List[float] = []
        self.spent = 0.0  # wall seconds the handler took inside the block
        self._busy = False
        self._previous = None
        self._shared = None
        self._forks = 0
        if workers > 1:
            # per forked worker: [sum of loop times, samples, handler seconds]
            self._shared = multiprocessing.RawArray("d", 3 * MAX_WORKER_SLOTS)

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        begin = time.perf_counter()
        self.samples.append(loop_time())
        self.spent += time.perf_counter() - begin
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        global _active, _fork_hook_installed
        if self._shared is not None:
            if not _fork_hook_installed:
                os.register_at_fork(before=_count_fork,
                                    after_in_child=_start_in_forked_child)
                _fork_hook_installed = True
            _active = self
        self.samples.append(loop_time())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        _active = None
        self.samples.append(loop_time())

    def _worker_totals(self):
        """``(loop seconds, samples, handler seconds)`` over all workers."""
        shared = self._shared
        return tuple(sum(shared[i::3]) for i in range(3))

    def effective(self, wall_s: float) -> float:
        """``wall_s`` less the time sampling took from the work."""
        if self._shared is not None:
            _, count, spent = self._worker_totals()
            if count:
                return wall_s - spent / self.workers
        return wall_s - self.spent

    def scale(self, wall_s: float) -> float:
        """``wall_s`` (measured across the block) at the reference speed."""
        mean = sum(self.samples) / len(self.samples)
        if self._shared is not None:
            loops, count, _ = self._worker_totals()
            if count:
                mean = loops / count
        return self.effective(wall_s) * REFERENCE_LOOP_S / mean

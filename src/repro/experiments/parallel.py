"""Process-pool experiment engine.

Every paper artifact fans out over *independent* scenario runs: the
four cells of an RSSI table, the homes of a campaign, the cells of a
sweep, the sections of the full report.  Each run is a pure
function of its arguments (testbed, speaker, deployment, seed, counts,
config), so they can execute in worker processes without changing any
result.  This module provides that executor:

* :class:`ExperimentTask` — a picklable unit of work (a module-level
  callable plus its arguments).
* :class:`ExperimentEngine` — one streaming loop,
  :meth:`~ExperimentEngine.run_fold`, folds each task's result as it
  completes, either serially (``workers=1``, byte-identical to calling
  the functions in a loop) or on a ``ProcessPoolExecutor`` with a
  bounded number of tasks in flight.  :meth:`~ExperimentEngine.run` is
  that loop with a fold that stores each result at its submission
  index.
* :func:`derive_seed` — deterministic seed derivation per task from a
  base seed and arbitrary labels (SHA-256 based, so stable across
  processes, platforms and Python hash randomization);
  :func:`derive_seeds` derives many that differ in the last label only.

Nothing is kept between runs: every result comes from the run that
returns it.

A crashed worker (killed process, segfault) surfaces as
:class:`repro.errors.ExperimentError` naming the task that was in
flight, rather than hanging the run.
"""

from __future__ import annotations

import collections
import concurrent.futures
import hashlib
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError

_SEED_SPACE = 2**32


def derive_seed(base: int, *parts: object) -> int:
    """Derive a deterministic task seed from ``base`` and any labels.

    Unlike ``hash()``, the derivation is stable across processes and
    interpreter invocations, so a task derives the same seed whether it
    runs serially, in a pool worker, or in next week's rerun.
    """
    text = "|".join([str(int(base)), *(str(part) for part in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


def derive_seeds(base: int, *parts: object, last: Iterable[object]) -> List[int]:
    """``[derive_seed(base, *parts, x) for x in last]``, hashing the
    shared ``base|parts|`` prefix once: each seed hashes its last label
    onto a copy of the prefix's hash state."""
    prefix = hashlib.sha256(
        "|".join([str(int(base)), *(str(part) for part in parts), ""]).encode("utf-8"))
    seeds = []
    for part in last:
        digest = prefix.copy()
        digest.update(str(part).encode("utf-8"))
        # Bytes 4-8 are derive_seed's first eight modulo 2**32.
        seeds.append(int.from_bytes(digest.digest()[4:8], "big"))
    return seeds


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of work: a module-level callable plus its arguments.

    ``fn`` must be importable by name (no lambdas/closures) so the task
    can cross a process boundary; its arguments, and on a pool its
    return value, must be picklable.
    """

    fn: Callable[..., Any]
    args: Tuple[object, ...] = ()
    kwargs: Dict[str, object] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", getattr(self.fn, "__name__", "task"))

    def execute(self) -> object:
        return self.fn(*self.args, **self.kwargs)


@dataclass
class TaskTiming:
    """Structured timing/progress record for one executed task."""

    label: str
    elapsed: float


def _pool_invoke(fn: Callable[..., Any], args: tuple, kwargs: dict) -> Tuple[object, float]:
    """Worker-side entry: run the task and report its own wall time."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


class ExperimentEngine:
    """Fans independent experiment tasks out over a process pool.

    ``workers=1`` (the default) executes in-process, in submission
    order — byte-identical to the historical serial loops.  ``workers=0``
    means "one per CPU".  :meth:`run` returns results in submission
    order regardless of completion order.
    """

    def __init__(
        self,
        workers: int = 1,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 0:
            raise ExperimentError(f"workers must be >= 0, got {workers!r}")
        self.workers = workers if workers > 0 else (os.cpu_count() or 1)
        # Processes that ran the last run_fold's tasks: its pool's width,
        # or 1 when every task ran in-process.
        self.width = 1
        self.progress = progress
        self.timings: List[TaskTiming] = []

    # -- progress ----------------------------------------------------------
    def _emit(self, message: str) -> None:
        if self.progress:
            self.progress(message)

    # -- execution ---------------------------------------------------------
    def run(self, tasks: Sequence[ExperimentTask]) -> List[object]:
        """Execute ``tasks``; returns their results in submission order."""
        tasks = list(tasks)
        # Submission indices per task object, so a task listed twice
        # fills both of its slots.
        slots: Dict[int, collections.deque] = {}
        for index, task in enumerate(tasks):
            slots.setdefault(id(task), collections.deque()).append(index)

        def store(results: List[object], value: object, task: ExperimentTask):
            results[slots[id(task)].popleft()] = value
            return results

        results, _ = self.run_fold(tasks, store, [None] * len(tasks))
        return results

    def _make_pool(self, width: int) -> concurrent.futures.ProcessPoolExecutor:
        # Fork start-up is near-free and inherits imported modules; fall
        # back to the platform default (spawn) where fork is unavailable.
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=width, mp_context=context,
        )

    def run_fold(
        self,
        tasks: Iterable[ExperimentTask],
        fold: Callable[[Any, object, ExperimentTask], Any],
        initial: Any = None,
    ) -> Tuple[Any, int]:
        """Stream ``tasks`` through the engine with constant memory.

        ``tasks`` may be any iterable — a generator over a million
        chunks never materializes a task list, and each completed
        result is folded into the accumulator via
        ``fold(accumulator, result, task)`` and then *released*: the
        engine holds at most ``4 * workers`` tasks in flight and never
        a list of task results.

        Returns ``(accumulator, task_count)``.

        A pool starts only once two tasks are read ahead, and is never
        wider than the tasks read ahead (up to ``workers``); otherwise
        every task runs in-process, folding in submission order.
        :attr:`width` records which.  On a pool results fold in
        *completion* order, so ``fold`` must be commutative and
        associative for the outcome to be independent of worker count —
        the fleet reducers (integer counters and mergeable sketches) and
        :meth:`run`'s indexed store all are.
        """
        accumulator = initial
        count = 0
        queue = iter(tasks)
        ahead = list(itertools.islice(queue, self.workers))
        width = len(ahead)
        queue = itertools.chain(ahead, queue)
        self.width = max(width, 1)

        if width < 2:
            for task in queue:
                self._emit(f"running {task.label}...")
                start = time.perf_counter()
                value = task.execute()
                self.timings.append(TaskTiming(task.label, time.perf_counter() - start))
                accumulator = fold(accumulator, value, task)
                count += 1
            return accumulator, count

        window = 4 * self.workers
        pool = self._make_pool(width)
        in_flight: Dict[concurrent.futures.Future, ExperimentTask] = {}
        try:
            while True:
                # Top up to the backpressure window.
                for task in queue:
                    self._emit(f"running {task.label}...")
                    in_flight[pool.submit(_pool_invoke, task.fn, task.args,
                                          dict(task.kwargs))] = task
                    if len(in_flight) >= window:
                        break
                if not in_flight:
                    break
                ready, _ = concurrent.futures.wait(
                    in_flight, return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in ready:
                    # Dropping the future releases the engine's handle on
                    # the pickled result as soon as it is folded.
                    task = in_flight.pop(future)
                    try:
                        value, elapsed = future.result()
                    except concurrent.futures.process.BrokenProcessPool as exc:
                        raise ExperimentError(
                            f"worker crashed while running {task.label!r} "
                            f"(pool of {width} broken): {exc}"
                        ) from exc
                    self.timings.append(TaskTiming(task.label, elapsed))
                    accumulator = fold(accumulator, value, task)
                    count += 1
                    self._emit(f"finished {task.label} ({count} done, "
                               f"{elapsed:.1f}s)")
                    del value
        finally:
            # cancel_futures stops queued tasks after a failure; waiting
            # joins the workers so nothing lingers past the run.
            pool.shutdown(wait=True, cancel_futures=True)
        return accumulator, count

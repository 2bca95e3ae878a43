"""Process-pool experiment engine.

Every paper artifact fans out over *independent* scenario runs: the
four cells of an RSSI table, the homes of a campaign, the arms of an
ablation, the sections of the full report.  Each run is a pure
function of its arguments (testbed, speaker, deployment, seed, counts,
config), so they can execute in worker processes without changing any
result.  This module provides that executor:

* :class:`ExperimentTask` — a picklable unit of work (a module-level
  callable plus its arguments) with a stable content-addressed key.
* :class:`ExperimentEngine` — one streaming loop,
  :meth:`~ExperimentEngine.run_fold`, folds each task's result as it
  completes, either serially (``workers=1``, byte-identical to calling
  the functions in a loop) or on a ``ProcessPoolExecutor`` with a
  bounded number of tasks in flight.  :meth:`~ExperimentEngine.run` is
  that loop with a fold that stores each result at its submission
  index.
* :func:`derive_seed` — deterministic seed derivation per task from a
  base seed and arbitrary labels (SHA-256 based, so stable across
  processes, platforms and Python hash randomization).
* An on-disk result cache keyed by the task's arguments plus a
  code-version tag, so re-running an unchanged experiment is free and
  editing any source file under :mod:`repro` invalidates everything.

A crashed worker (killed process, segfault) surfaces as
:class:`repro.errors.ExperimentError` naming the task that was in
flight, rather than hanging the run.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import enum
import hashlib
import itertools
import logging
import multiprocessing
import os
import pathlib
import pickle
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.errors import ExperimentError

log = logging.getLogger(__name__)

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

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


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """A tag that changes whenever any source file under ``repro`` does.

    Cached results are only valid for the code that produced them; the
    tag is folded into every cache key so a source edit invalidates the
    whole cache at once (conservative, but never stale).
    """
    global _code_version_cache
    if _code_version_cache is None:
        package_root = pathlib.Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def _canonical(value: object) -> str:
    """A deterministic textual form of a task argument.

    Must be stable across processes: no ``id()``-bearing reprs for the
    types experiments actually pass (primitives, containers, enums,
    config dataclasses, callables).
    """
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{_canonical(k)}:{_canonical(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    if isinstance(value, enum.Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    if callable(value):
        return f"{getattr(value, '__module__', '?')}:{getattr(value, '__qualname__', repr(value))}"
    return repr(value)


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of work: a module-level callable plus its arguments.

    ``fn`` must be importable by name (no lambdas/closures) so the task
    can cross a process boundary; its arguments and return value must
    be picklable.
    """

    fn: Callable[..., Any]
    args: Tuple[object, ...] = ()
    kwargs: Dict[str, object] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", getattr(self.fn, "__name__", "task"))

    def cache_key(self) -> str:
        """Content-addressed key: arguments + code-version tag."""
        payload = _canonical((self.fn, self.args, self.kwargs, code_version()))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def execute(self) -> object:
        return self.fn(*self.args, **self.kwargs)


@dataclass
class TaskTiming:
    """Structured timing/progress record for one executed task."""

    label: str
    elapsed: float
    cache_hit: bool = False

    @property
    def source(self) -> str:
        return "cache" if self.cache_hit else "run"


def resolve_cache_dir(cache_dir: Optional[os.PathLike] = None) -> pathlib.Path:
    """Cache location: explicit arg > ``$REPRO_CACHE_DIR`` > user cache."""
    if cache_dir is not None:
        return pathlib.Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "experiments"


def cache_stats(cache_dir: Optional[os.PathLike] = None) -> Dict[str, object]:
    """Entry count and byte total of the on-disk result cache."""
    directory = resolve_cache_dir(cache_dir)
    entries = 0
    total_bytes = 0
    if directory.is_dir():
        for path in directory.iterdir():
            if not path.is_file():
                continue
            if path.suffix != ".pkl" and ".tmp." not in path.name:
                continue
            try:
                total_bytes += path.stat().st_size
                entries += 1
            except OSError:
                continue
    return {"path": str(directory), "entries": entries, "bytes": total_bytes}


def prune_cache(
    cache_dir: Optional[os.PathLike] = None,
    keep_days: Optional[float] = None,
) -> Dict[str, object]:
    """Delete cached results, reporting the bytes reclaimed.

    ``keep_days`` keeps entries modified within the last N days;
    without it the whole cache goes.  Stale ``.tmp.<pid>`` spill files
    from interrupted writes are always removed.  The cache is
    content-addressed (arguments + code-version tag), so pruning can
    never make a later run incorrect — only slower.
    """
    directory = resolve_cache_dir(cache_dir)
    removed = 0
    reclaimed = 0
    kept = 0
    if directory.is_dir():
        cutoff = None if keep_days is None else time.time() - keep_days * 86400.0
        for path in sorted(directory.iterdir()):
            if not path.is_file():
                continue
            is_tmp = ".tmp." in path.name
            if path.suffix != ".pkl" and not is_tmp:
                continue
            try:
                stat = path.stat()
                if cutoff is not None and not is_tmp and stat.st_mtime >= cutoff:
                    kept += 1
                    continue
                path.unlink()
                removed += 1
                reclaimed += stat.st_size
            except OSError:
                kept += 1
    return {
        "path": str(directory),
        "removed": removed,
        "bytes_reclaimed": reclaimed,
        "kept": kept,
    }


def _pool_invoke(fn: Callable[..., Any], args: tuple, kwargs: dict) -> Tuple[object, float]:
    """Worker-side entry: run the task and report its own wall time."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


# Marks a task the cache could not serve (a cached result may be None).
_MISS = object()


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
        use_cache: bool = False,
        cache_dir: Optional[os.PathLike] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 0:
            raise ExperimentError(f"workers must be >= 0, got {workers!r}")
        self.workers = workers if workers > 0 else (os.cpu_count() or 1)
        self.use_cache = use_cache
        self.cache_dir = resolve_cache_dir(cache_dir)
        self.progress = progress
        self.timings: List[TaskTiming] = []
        self.cache_hits = 0

    # -- cache -------------------------------------------------------------
    def _cache_path(self, task: ExperimentTask) -> pathlib.Path:
        name = getattr(task.fn, "__name__", "task")
        return self.cache_dir / f"{name}-{task.cache_key()[:40]}.pkl"

    def _cached(self, task: ExperimentTask) -> object:
        """The task's cached result (counted, timed, reported), else ``_MISS``."""
        if not self.use_cache:
            return _MISS
        path = self._cache_path(task)
        if not path.exists():
            return _MISS
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except Exception:
            # Corrupt or unreadable entry: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return _MISS
        self.cache_hits += 1
        self.timings.append(TaskTiming(task.label, 0.0, cache_hit=True))
        self._emit(f"cached {task.label}")
        return value

    def _cache_store(self, task: ExperimentTask, value: object) -> None:
        path = self._cache_path(task)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception as exc:
            # Caching is best-effort: an unwritable cache or an unpicklable
            # result (pickle raises TypeError for a lock, AttributeError
            # for a local object) never fails a run or leaves a spill
            # file behind.
            log.warning("not caching %s: %r", task.label, exc)
            try:
                tmp.unlink()
            except OSError:
                pass

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

    def _finish(self, task: ExperimentTask, value: object, elapsed: float) -> None:
        self.timings.append(TaskTiming(task.label, elapsed))
        if self.use_cache:
            self._cache_store(task, value)

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

        A pool starts only once two tasks miss the cache, and is never
        wider than the misses it has seen (up to ``workers``); otherwise
        every task runs in-process, folding in submission order.  On a
        pool results fold in *completion* order, so ``fold`` must be
        commutative and associative for the outcome to be independent
        of worker count — the fleet reducers (integer counters and
        mergeable sketches) and :meth:`run`'s indexed store all are.
        """
        accumulator = initial
        count = 0
        queue: Iterator[Tuple[ExperimentTask, object]] = (
            (task, self._cached(task)) for task in tasks)
        width = 0
        if self.workers > 1:
            # Read ahead until ``workers`` tasks have missed the cache;
            # the misses seen so far are the pool's width.
            ahead = []
            for item in queue:
                ahead.append(item)
                width += item[1] is _MISS
                if width == self.workers:
                    break
            queue = itertools.chain(ahead, queue)

        if width < 2:
            for task, value in queue:
                if value is _MISS:
                    self._emit(f"running {task.label}...")
                    start = time.perf_counter()
                    value = task.execute()
                    self._finish(task, value, time.perf_counter() - start)
                accumulator = fold(accumulator, value, task)
                count += 1
            return accumulator, count

        window = 4 * self.workers
        pool = self._make_pool(width)
        in_flight: Dict[concurrent.futures.Future, ExperimentTask] = {}
        try:
            while True:
                # Top up to the backpressure window; cache hits fold
                # immediately without occupying a slot.
                for task, value in queue:
                    if value is not _MISS:
                        accumulator = fold(accumulator, value, task)
                        count += 1
                        continue
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
                    self._finish(task, value, elapsed)
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

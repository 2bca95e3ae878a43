"""Tests for the parallel experiment engine: determinism across worker
counts, the on-disk result cache, crash surfacing, seed derivation, and
the NaN-free table rendering that rides along with it."""

from __future__ import annotations

import os
import threading

import pytest

from repro.analysis.metrics import ConfusionMatrix
from repro.analysis.reporting import fmt_percent, render_task_timings
from repro.errors import ExperimentError
from repro.experiments.parallel import (
    CACHE_DIR_ENV,
    ExperimentEngine,
    ExperimentTask,
    code_version,
    derive_seed,
)
from repro.experiments.runner import RssiExperimentResult


# Module-level task functions: the pool pickles tasks by reference.

def _square(value, offset=0):
    return value * value + offset


def _touch_and_square(value, marker_dir):
    """Leaves a marker file per execution so cache hits are observable."""
    count = len(os.listdir(marker_dir))
    with open(os.path.join(marker_dir, f"exec-{count}"), "w"):
        pass
    return value * value


def _crash(code):
    os._exit(code)


def _lock():
    return threading.Lock()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, "table", "echo", 0) == derive_seed(3, "table", "echo", 0)

    def test_distinct_per_label(self):
        seeds = {derive_seed(3, "cell", i) for i in range(50)}
        assert len(seeds) == 50

    def test_distinct_per_base(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_in_32_bit_range(self):
        for base in (0, 7, 2**40):
            seed = derive_seed(base, "y")
            assert 0 <= seed < 2**32


class TestEngineBasics:
    def test_serial_preserves_order(self):
        engine = ExperimentEngine(workers=1)
        tasks = [ExperimentTask(fn=_square, args=(i,)) for i in range(5)]
        assert engine.run(tasks) == [0, 1, 4, 9, 16]

    def test_pool_preserves_order(self):
        engine = ExperimentEngine(workers=3)
        tasks = [ExperimentTask(fn=_square, args=(i,), label=f"sq/{i}")
                 for i in range(7)]
        assert engine.run(tasks) == [i * i for i in range(7)]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_duplicated_task_fills_both_slots(self, workers):
        shared = ExperimentTask(fn=_square, args=(5,))
        tasks = [shared, ExperimentTask(fn=_square, args=(2,)), shared,
                 ExperimentTask(fn=_square, args=(3,))]
        assert ExperimentEngine(workers=workers).run(tasks) == [25, 4, 25, 9]

    def test_pool_width_capped_by_pending_tasks(self, monkeypatch):
        widths = []
        real = ExperimentEngine._make_pool

        def spy(engine, width):
            widths.append(width)
            return real(engine, width)

        monkeypatch.setattr(ExperimentEngine, "_make_pool", spy)
        engine = ExperimentEngine(workers=4)
        tasks = [ExperimentTask(fn=_square, args=(i,)) for i in range(2)]
        assert engine.run(tasks) == [0, 1]
        assert widths == [2]

    @pytest.mark.parametrize("count", [0, 1])
    def test_no_pool_for_one_pending_task(self, monkeypatch, count):
        def forbidden(engine, width):
            raise AssertionError("a pool started for a single task")

        monkeypatch.setattr(ExperimentEngine, "_make_pool", forbidden)
        engine = ExperimentEngine(workers=2)
        tasks = [ExperimentTask(fn=_square, args=(7,))][:count]
        assert engine.run(tasks) == [49][:count]

    def test_timings_recorded(self):
        engine = ExperimentEngine(workers=1)
        engine.run([ExperimentTask(fn=_square, args=(2,), label="one"),
                    ExperimentTask(fn=_square, args=(3,), label="two")])
        assert [t.label for t in engine.timings] == ["one", "two"]
        assert all(not t.cache_hit for t in engine.timings)
        text = render_task_timings(engine.timings)
        assert "one" in text and "2 tasks" in text

    def test_negative_workers_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentEngine(workers=-1)

    def test_workers_zero_means_cpu_count(self):
        engine = ExperimentEngine(workers=0)
        assert engine.workers == (os.cpu_count() or 1)

    def test_default_label_is_function_name(self):
        assert ExperimentTask(fn=_square).label == "_square"


class TestCache:
    def test_cache_hit_skips_execution(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        cache = tmp_path / "cache"
        task = ExperimentTask(fn=_touch_and_square, args=(4, str(markers)))
        first = ExperimentEngine(workers=1, use_cache=True, cache_dir=cache)
        assert first.run([task]) == [16]
        assert len(list(markers.iterdir())) == 1
        second = ExperimentEngine(workers=1, use_cache=True, cache_dir=cache)
        assert second.run([task]) == [16]
        assert len(list(markers.iterdir())) == 1  # not re-executed
        assert second.cache_hits == 1
        assert second.timings[0].cache_hit

    def test_cache_disabled_reexecutes(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        task = ExperimentTask(fn=_touch_and_square, args=(4, str(markers)))
        for _ in range(2):
            engine = ExperimentEngine(workers=1, use_cache=False,
                                      cache_dir=tmp_path / "cache")
            engine.run([task])
        assert len(list(markers.iterdir())) == 2

    def test_key_depends_on_arguments(self):
        a = ExperimentTask(fn=_square, args=(1,))
        b = ExperimentTask(fn=_square, args=(2,))
        c = ExperimentTask(fn=_square, args=(1,), kwargs={"offset": 5})
        assert a.cache_key() == ExperimentTask(fn=_square, args=(1,)).cache_key()
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 3

    def test_key_folds_in_code_version(self):
        task = ExperimentTask(fn=_square, args=(1,))
        key = task.cache_key()
        import repro.experiments.parallel as parallel_module
        original = parallel_module._code_version_cache
        try:
            parallel_module._code_version_cache = "different-code"
            assert task.cache_key() != key
        finally:
            parallel_module._code_version_cache = original

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = tmp_path / "cache"
        task = ExperimentTask(fn=_square, args=(6,))
        engine = ExperimentEngine(workers=1, use_cache=True, cache_dir=cache)
        assert engine.run([task]) == [36]
        (entry,) = list(cache.iterdir())
        entry.write_bytes(b"not a pickle")
        again = ExperimentEngine(workers=1, use_cache=True, cache_dir=cache)
        assert again.run([task]) == [36]

    def test_unpicklable_result_skips_the_cache(self, tmp_path):
        # A result the cache cannot pickle still returns, and leaves no
        # entry or spill file behind.
        cache = tmp_path / "cache"
        engine = ExperimentEngine(workers=1, use_cache=True, cache_dir=cache)
        [result] = engine.run([ExperimentTask(fn=_lock)])
        assert isinstance(result, type(threading.Lock()))
        assert not cache.exists() or not list(cache.iterdir())

    def test_code_version_is_stable(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestCrashSurfacing:
    def test_crashed_worker_raises_clear_error(self):
        engine = ExperimentEngine(workers=2)
        tasks = [ExperimentTask(fn=_crash, args=(3,), label="boom/a"),
                 ExperimentTask(fn=_crash, args=(3,), label="boom/b")]
        with pytest.raises(ExperimentError, match="worker crashed.*boom"):
            engine.run(tasks)

    def test_task_exception_propagates_serially(self):
        def bad():
            raise ValueError("broken task")

        engine = ExperimentEngine(workers=1)
        with pytest.raises(ValueError, match="broken task"):
            engine.run([ExperimentTask(fn=bad)])


class TestRssiTableParallel:
    SCALE = 0.1

    @pytest.fixture(scope="class")
    def serial(self):
        from repro.experiments.rssi_tables import run_rssi_table

        return run_rssi_table("apartment", seed=7, scale=self.SCALE)

    def test_pool_output_identical(self, serial):
        from repro.experiments.rssi_tables import run_rssi_table

        parallel = run_rssi_table("apartment", seed=7, scale=self.SCALE, workers=4)
        assert parallel.render() == serial.render()
        assert parallel.render_with_paper() == serial.render_with_paper()
        for a, b in zip(serial.cells, parallel.cells):
            assert a.matrix == b.matrix
            assert a.scenario_name == b.scenario_name

    def test_cached_rerun_matches(self, serial, tmp_path, monkeypatch):
        from repro.experiments.rssi_tables import run_rssi_table

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cold = run_rssi_table("apartment", seed=7, scale=self.SCALE,
                              use_cache=True)
        assert len(list(tmp_path.glob("*.pkl"))) == 4  # one entry per cell
        warm = run_rssi_table("apartment", seed=7, scale=self.SCALE,
                              use_cache=True)
        assert cold.render() == serial.render()
        assert warm.render() == serial.render()


class TestCampaignParallel:
    def test_pool_output_identical(self):
        from repro.experiments.campaign import run_campaign

        serial = run_campaign(homes=2, seed=301)
        parallel = run_campaign(homes=2, seed=301, workers=4)
        assert parallel.homes == serial.homes
        assert parallel.render() == serial.render()


class TestNanRendering:
    def _empty_cell(self):
        return RssiExperimentResult(scenario_name="x/y/loc1",
                                    matrix=ConfusionMatrix())

    def test_fmt_percent_nan_is_dash(self):
        assert fmt_percent(float("nan")) == "—"
        assert fmt_percent(0.5) == "50.00%"
        assert fmt_percent(1.0, decimals=1) == "100.0%"

    def test_row_renders_dash_not_nan(self):
        row = self._empty_cell().row()
        assert row["accuracy"] == "—"
        assert row["precision"] == "—"
        assert row["recall"] == "—"

    def test_table_render_has_no_nan(self):
        from repro.experiments.rssi_tables import RssiTableResult

        table = RssiTableResult(testbed="house", cells=[self._empty_cell()])
        assert "nan" not in table.render()
        assert "—" in table.render()


class TestSeededInterval:
    def test_interval_reproducible(self):
        from repro.audio.voiceprint import UtteranceSource
        from repro.speakers.base import InteractionRecord

        records = []
        for index in range(20):
            record = InteractionRecord(
                interaction_id=index, text="x",
                source=UtteranceSource.REPLAY if index % 3 else UtteranceSource.LIVE_OWNER,
                speaker_label="s", started_at=0.0, speech_ends_at=1.0,
            )
            if index % 4:
                record.executed_at = 2.0
            record.settle()
            records.append(record)
        cell = RssiExperimentResult(scenario_name="a/b/loc1",
                                    matrix=ConfusionMatrix(), records=records)
        first = cell.accuracy_interval(seed=11)
        second = cell.accuracy_interval(seed=11)
        assert (first.low, first.high) == (second.low, second.high)


# Module-level for pool pickling (run_fold tests).

def _triple(value):
    return value * 3


class TestRunFold:
    def _tasks(self, n):
        return (ExperimentTask(fn=_triple, args=(i,), label=f"t{i}")
                for i in range(n))

    def test_serial_fold(self):
        engine = ExperimentEngine(workers=1, use_cache=False)
        total, count = engine.run_fold(self._tasks(10),
                                       lambda acc, v, task: acc + v,
                                       initial=0)
        assert total == sum(3 * i for i in range(10))
        assert count == 10

    def test_pool_fold_matches_serial(self):
        serial = ExperimentEngine(workers=1, use_cache=False)
        pooled = ExperimentEngine(workers=3, use_cache=False)
        fold = lambda acc, v, task: acc + v  # noqa: E731 - commutative
        expected, _ = serial.run_fold(self._tasks(20), fold, initial=0)
        actual, count = pooled.run_fold(self._tasks(20), fold, initial=0)
        assert actual == expected
        assert count == 20

    def test_pool_fold_bounded_window(self):
        # The stream is pulled lazily: never more than 4 * workers tasks
        # ahead of the folds.
        engine = ExperimentEngine(workers=2, use_cache=False)
        pulled = []

        def stream():
            for task in self._tasks(30):
                pulled.append(task)
                yield task

        def fold(acc, value, task):
            assert len(pulled) - acc[1] <= 4 * engine.workers
            return acc[0] + value, acc[1] + 1

        (total, folded), count = engine.run_fold(stream(), fold,
                                                 initial=(0, 0))
        assert total == sum(3 * i for i in range(30))
        assert count == folded == 30

    def test_fold_receives_task(self):
        engine = ExperimentEngine(workers=1, use_cache=False)
        labels, _ = engine.run_fold(
            self._tasks(3),
            lambda acc, v, task: acc + [task.label],
            initial=[])
        assert labels == ["t0", "t1", "t2"]

    def test_empty_iterable(self):
        engine = ExperimentEngine(workers=1, use_cache=False)
        acc, count = engine.run_fold(iter(()), lambda a, v, t: a, initial=7)
        assert (acc, count) == (7, 0)


class TestCacheTools:
    def test_stats_and_prune(self, tmp_path):
        from repro.experiments.parallel import cache_stats, prune_cache

        cache = tmp_path / "cache"
        engine = ExperimentEngine(workers=1, use_cache=True, cache_dir=cache)
        engine.run([ExperimentTask(fn=_square, args=(i,)) for i in range(3)])

        stats = cache_stats(cache_dir=cache)
        assert stats["entries"] == 3
        assert stats["bytes"] > 0

        report = prune_cache(cache_dir=cache)
        assert report["removed"] == 3
        assert report["bytes_reclaimed"] == stats["bytes"]
        assert cache_stats(cache_dir=cache)["entries"] == 0

    def test_prune_keep_days_keeps_fresh_entries(self, tmp_path):
        from repro.experiments.parallel import cache_stats, prune_cache

        cache = tmp_path / "cache"
        engine = ExperimentEngine(workers=1, use_cache=True, cache_dir=cache)
        engine.run([ExperimentTask(fn=_square, args=(1,))])
        report = prune_cache(cache_dir=cache, keep_days=1.0)
        assert report["removed"] == 0
        assert report["kept"] == 1
        assert cache_stats(cache_dir=cache)["entries"] == 1

    def test_prune_keep_days_drops_stale_entries(self, tmp_path):
        from repro.experiments.parallel import prune_cache

        cache = tmp_path / "cache"
        engine = ExperimentEngine(workers=1, use_cache=True, cache_dir=cache)
        engine.run([ExperimentTask(fn=_square, args=(1,))])
        stale = 10 * 86400
        for entry in cache.glob("*.pkl"):
            info = entry.stat()
            os.utime(entry, (info.st_atime - stale, info.st_mtime - stale))
        report = prune_cache(cache_dir=cache, keep_days=1.0)
        assert report["removed"] == 1

    def test_stats_on_missing_dir(self, tmp_path):
        from repro.experiments.parallel import cache_stats, prune_cache

        missing = tmp_path / "nope"
        assert cache_stats(cache_dir=missing)["entries"] == 0
        assert prune_cache(cache_dir=missing)["removed"] == 0


class TestPoolReleasesFutures:
    def test_large_fold_constant_accumulator(self):
        # 60 tasks through 2 workers with a window of 8: if the pool
        # path held every future/result, this would accumulate 60
        # payloads; the fold sees them exactly once each instead.
        engine = ExperimentEngine(workers=2, use_cache=False)
        seen = []
        _, count = engine.run_fold(
            (ExperimentTask(fn=_triple, args=(i,)) for i in range(60)),
            lambda acc, v, task: seen.append(v) or acc,
            initial=None)
        assert count == 60
        assert sorted(seen) == [3 * i for i in range(60)]

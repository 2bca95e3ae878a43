"""Tests for the parallel experiment engine: determinism across worker
counts, re-execution on every run, crash surfacing, seed derivation, and
the NaN-free table rendering that rides along with it."""

from __future__ import annotations

import os
import threading

import pytest

from repro.analysis.metrics import ConfusionMatrix
from repro.analysis.reporting import fmt_percent, render_task_timings
from repro.errors import ExperimentError
from repro.experiments.parallel import (
    ExperimentEngine,
    ExperimentTask,
    derive_seed,
)
from repro.experiments.runner import RssiExperimentResult


# Module-level task functions: the pool pickles tasks by reference.

def _square(value, offset=0):
    return value * value + offset


def _touch_and_square(value, marker_dir):
    """Leaves a marker file per execution so re-runs are observable."""
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
        assert all(t.elapsed >= 0.0 for t in engine.timings)
        text = render_task_timings(engine.timings)
        assert "one" in text and "2 tasks" in text
        assert "source" not in text and "cached" not in text

    def test_negative_workers_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentEngine(workers=-1)

    def test_workers_zero_means_cpu_count(self):
        engine = ExperimentEngine(workers=0)
        assert engine.workers == (os.cpu_count() or 1)

    def test_default_label_is_function_name(self):
        assert ExperimentTask(fn=_square).label == "_square"

    def test_second_run_reexecutes(self, tmp_path):
        task = ExperimentTask(fn=_touch_and_square, args=(4, str(tmp_path)))
        for _ in range(2):
            assert ExperimentEngine(workers=1).run([task]) == [16]
        assert len(list(tmp_path.iterdir())) == 2

    def test_serial_run_returns_unpicklable_result(self):
        [result] = ExperimentEngine(workers=1).run([ExperimentTask(fn=_lock)])
        assert isinstance(result, type(threading.Lock()))


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
        engine = ExperimentEngine(workers=1)
        total, count = engine.run_fold(self._tasks(10),
                                       lambda acc, v, task: acc + v,
                                       initial=0)
        assert total == sum(3 * i for i in range(10))
        assert count == 10

    def test_pool_fold_matches_serial(self):
        serial = ExperimentEngine(workers=1)
        pooled = ExperimentEngine(workers=3)
        fold = lambda acc, v, task: acc + v  # noqa: E731 - commutative
        expected, _ = serial.run_fold(self._tasks(20), fold, initial=0)
        actual, count = pooled.run_fold(self._tasks(20), fold, initial=0)
        assert actual == expected
        assert count == 20

    def test_pool_fold_bounded_window(self):
        # The stream is pulled lazily: never more than 4 * workers tasks
        # ahead of the folds.
        engine = ExperimentEngine(workers=2)
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
        engine = ExperimentEngine(workers=1)
        labels, _ = engine.run_fold(
            self._tasks(3),
            lambda acc, v, task: acc + [task.label],
            initial=[])
        assert labels == ["t0", "t1", "t2"]

    def test_empty_iterable(self):
        engine = ExperimentEngine(workers=1)
        acc, count = engine.run_fold(iter(()), lambda a, v, t: a, initial=7)
        assert (acc, count) == (7, 0)


class TestPoolReleasesFutures:
    def test_large_fold_constant_accumulator(self):
        # 60 tasks through 2 workers with a window of 8: if the pool
        # path held every future/result, this would accumulate 60
        # payloads; the fold sees them exactly once each instead.
        engine = ExperimentEngine(workers=2)
        seen = []
        _, count = engine.run_fold(
            (ExperimentTask(fn=_triple, args=(i,)) for i in range(60)),
            lambda acc, v, task: seen.append(v) or acc,
            initial=None)
        assert count == 60
        assert sorted(seen) == [3 * i for i in range(60)]

"""The ``repro loadtest`` experiment: grid shape, stress modes, and
worker-count determinism of the rendered table."""

from __future__ import annotations

import pytest

from repro.experiments.loadtest import (
    LoadtestResult,
    run_loadtest,
    run_loadtest_cell,
    saturation_knee,
)
from repro.errors import WorkloadError
from repro.obs.metrics import merge_snapshots


@pytest.fixture(scope="module")
def smoke_result() -> LoadtestResult:
    return run_loadtest(seed=3, smoke=True, workers=1)


class TestLoadtestGrid:
    def test_smoke_grid_shape(self, smoke_result):
        labels = [(c.speakers, c.rate, c.mode) for c in smoke_result.cells]
        assert labels == [
            (1, "high", "coordinated"),
            (4, "high", "coordinated"),
            (4, "high", "strict"),
            (4, "high", "degraded"),
        ]

    def test_multi_speaker_multiplies_commands(self, smoke_result):
        one, four = smoke_result.cells[0], smoke_result.cells[1]
        assert four.commands > one.commands
        assert four.throughput >= 2.0 * one.throughput
        # Batching did real work: most of the extra speakers' windows
        # rode another window's query.
        assert four.batched > 0

    def test_strict_mode_queues(self, smoke_result):
        strict = smoke_result.cells[2]
        assert strict.mode == "strict"
        assert strict.queued > 0
        assert strict.batched == 0

    def test_degraded_mode_sheds_load(self, smoke_result):
        degraded = smoke_result.cells[3]
        assert degraded.mode == "degraded"
        assert degraded.overflows > 0
        # Default policy is fail-closed: shed windows are blocked.
        assert degraded.blocked > 0

    def test_every_cell_resolves_every_command(self, smoke_result):
        for cell in smoke_result.cells:
            assert cell.resolved == cell.commands

    def test_knee_prefers_fastest_pre_knee_cell(self, smoke_result):
        knee = saturation_knee(smoke_result.cells, 4)
        assert knee is not None
        assert knee.mode == "coordinated"
        assert knee.timeouts == 0 and knee.failsafes == 0

    @pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
    def test_four_speaker_knee_at_least_doubles_single_flow(self, smoke,
                                                           smoke_result):
        # Four speakers hear each utterance; batching must turn that into
        # >= 2x the single flow's resolved commands/sec at the knee.
        result = smoke_result if smoke else run_loadtest(seed=3)
        knee1 = saturation_knee(result.cells, 1)
        knee4 = saturation_knee(result.cells, 4)
        assert knee1 is not None and knee4 is not None
        assert knee1.throughput > 0
        assert knee4.throughput >= 2.0 * knee1.throughput

    def test_render_mentions_knee_and_modes(self, smoke_result):
        rendered = smoke_result.render()
        assert "knee:" in rendered
        assert "coordinated" in rendered and "degraded" in rendered

    def test_merged_metrics_fold(self, smoke_result):
        merged = merge_snapshots(cell.metrics for cell in smoke_result.cells)
        assert merged["counters"]["decision.queries"] > 0
        assert "proxy.hold_duration" in merged["histograms"]


class TestLoadtestDeterminism:
    def test_table_identical_across_worker_counts(self, smoke_result):
        parallel = run_loadtest(seed=3, smoke=True, workers=2)
        assert parallel.render() == smoke_result.render()


class TestCellValidation:
    def test_unknown_rate_rejected(self):
        with pytest.raises(WorkloadError):
            run_loadtest_cell(1, "warp")

    def test_unknown_mode_rejected(self):
        with pytest.raises(WorkloadError):
            run_loadtest_cell(1, "high", mode="chaotic")

    def test_zero_speakers_rejected(self):
        with pytest.raises(WorkloadError):
            run_loadtest_cell(0, "high")

    def test_zero_utterances_rejected(self):
        with pytest.raises(WorkloadError):
            run_loadtest_cell(1, "high", utterances=0)

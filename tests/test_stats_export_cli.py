"""Tests for bootstrap statistics, CSV export, the campaign experiment,
and the command-line interface."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro.analysis.stats import (
    ConfidenceInterval,
    accuracy_interval,
    bootstrap_interval,
)


class TestBootstrap:
    def test_interval_brackets_estimate(self):
        interval = bootstrap_interval([1, 0, 1, 1, 0, 1, 1, 1, 0, 1], seed=1)
        assert interval.low <= interval.estimate <= interval.high
        assert interval.estimate == pytest.approx(0.7)

    def test_all_identical_has_zero_width(self):
        interval = bootstrap_interval([1.0] * 20, seed=1)
        assert interval.width == 0.0

    def test_single_observation_degenerate(self):
        interval = bootstrap_interval([0.5], seed=1)
        assert interval.low == interval.high == 0.5

    def test_more_data_narrows_interval(self):
        rng = np.random.default_rng(0)
        small = bootstrap_interval(rng.integers(0, 2, 20).tolist(), seed=1)
        large = bootstrap_interval(rng.integers(0, 2, 500).tolist(), seed=1)
        assert large.width < small.width

    def test_interval_contains(self):
        interval = ConfidenceInterval(0.5, 0.4, 0.6, 0.95)
        assert interval.contains(0.45)
        assert not interval.contains(0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_interval([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_interval([1, 0], confidence=1.5)

    def test_accuracy_interval_wrapper(self):
        interval = accuracy_interval([True] * 90 + [False] * 10, seed=2)
        assert interval.estimate == pytest.approx(0.9)
        assert 0.8 < interval.low < 0.9 < interval.high <= 1.0



class TestCsvExport:
    def test_write_csv_roundtrip(self, tmp_path):
        from repro.analysis.export import write_csv
        target = write_csv(tmp_path / "x.csv", ["a", "b"], [[1, 2], [3, 4]])
        with target.open() as handle:
            rows = list(csv.reader(handle))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_write_csv_rejects_ragged(self, tmp_path):
        from repro.analysis.export import write_csv
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [[1]])

    def test_export_rssi_map(self, tmp_path):
        from repro.analysis.export import export_rssi_map
        from repro.experiments.rssi_maps import run_rssi_map
        result = run_rssi_map("apartment", 0, seed=8)
        target = export_rssi_map(result, tmp_path / "map.csv")
        with target.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 54
        assert {"location", "room", "rssi", "threshold"} <= set(rows[0])

    def test_export_trace_features(self, tmp_path):
        from repro.analysis.export import export_trace_features
        from repro.core.floor import TraceFeatures

        class Stub:
            training = {"up": [TraceFeatures(-1.7, -10.0)]}
            testing = {"up": [TraceFeatures(-1.6, -10.2)]}

        target = export_trace_features(Stub(), tmp_path / "traces.csv")
        with target.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert {r["split"] for r in rows} == {"training", "test"}

    def test_export_delays(self, tmp_path):
        from repro.analysis.export import export_delays

        class Stub:
            speaker_kind = "echo"
            delays = [1.0, 2.0]

        target = export_delays(Stub(), tmp_path / "delays.csv")
        assert target.read_text().count("\n") == 3


class TestAccuracyIntervalOnCells:
    def test_cell_interval_brackets_accuracy(self):
        from repro.experiments.runner import run_rssi_experiment
        result = run_rssi_experiment(
            "apartment", "echo", 0, seed=131, legit_count=15, malicious_count=10,
        )
        interval = result.accuracy_interval()
        assert interval.contains(result.matrix.accuracy)
        assert len(result.correct_flags()) == 25


class TestCampaign:
    def test_guarded_fleet_blocks_campaign(self):
        from repro.experiments.campaign import run_campaign
        result = run_campaign(homes=2, seed=301)
        assert result.executed_fraction(protected=False) == 1.0
        assert result.executed_fraction(protected=True) == 0.0
        assert result.compromised_homes(True) == 0
        assert result.compromised_homes(False) == 2
        assert "VoiceGuard" in result.render()


def _section_alpha():
    return "alpha text"


def _section_beta():
    return "beta text"


class TestCli:
    def test_report_stdout_is_the_report_alone(self, monkeypatch, capsys):
        # Engine progress lines are chatter: stderr, like every other
        # subcommand's, never mixed into the report on stdout.
        from repro.__main__ import main
        from repro.experiments import report as report_module

        monkeypatch.setattr(report_module, "report_section_specs",
                            lambda scale, seed: [
                                report_module.SectionSpec("alpha", _section_alpha, ({},), None),
                                report_module.SectionSpec("beta", _section_beta, ({},), None)])
        made = []
        real = report_module.generate_report

        def capture(**kwargs):
            made.append(real(**kwargs))
            return made[-1]

        monkeypatch.setattr(report_module, "generate_report", capture)
        assert main(["report", "--no-cache"]) == 0
        out, err = capsys.readouterr()
        assert out == made[0].render() + "\n"
        assert "alpha text" in out and "beta text" in out
        assert "running alpha..." in err and "running beta..." in err

    def test_keep_days_without_prune_rejected(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "--keep-days", "3"])
        assert excinfo.value.code == 2
        assert "--prune" in capsys.readouterr().err

    @pytest.mark.parametrize("days", ["-1", "nan"])
    def test_bad_keep_days_rejected_before_pruning(self, days, tmp_path,
                                                   monkeypatch):
        from repro.__main__ import main
        from repro.experiments.parallel import (
            CACHE_DIR_ENV, ExperimentEngine, ExperimentTask,
        )
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        ExperimentEngine(use_cache=True).run([ExperimentTask(fn=_section_alpha)])
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "--prune", "--keep-days", days])
        assert excinfo.value.code == 2
        assert len(list(tmp_path.glob("*.pkl"))) == 1  # the fresh entry stays

    def test_fig3_runs(self, capsys):
        from repro.__main__ import main
        assert main(["fig", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_table1_runs(self, capsys):
        from repro.__main__ import main
        assert main(["table", "table1", "--seed", "2"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_endurance_runs(self, capsys):
        from repro.__main__ import main
        assert main(["endurance", "--seed", "29"]) == 0
        assert "Hold endurance" in capsys.readouterr().out

    def test_library_error_is_one_line_and_exit_2(self, capsys):
        from repro.__main__ import main
        assert main(["fleet", "--homes", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: fleet needs at least one home, got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["loadtest", "--smoke", "--utterances", "0"],
         "loadtest needs at least one utterance per cell, got 0"),
        (["campaign", "--homes", "0"], "campaign needs at least one home, got 0"),
        (["table", "table2", "--scale", "-1"],
         "scale must be a finite number above 0, got -1.0"),
        (["report", "--scale", "0"], "scale must be a finite number above 0, got 0.0"),
        (["resilience", "--scale", "nan"], "scale must be a finite number above 0, got nan"),
    ])
    def test_empty_workload_is_one_line_and_exit_2(self, argv, message, capsys):
        # Before anything runs: no table of empty cells, no nan% rows.
        from repro.__main__ import main
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_unknown_command_rejected(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_fig_choice_validated(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig", "99"])

    @pytest.mark.parametrize("argv", [
        ["bench-sim"], ["bench-rssi"], ["profile", "--legacy"], ["profile"],
        ["fleet", "--dispatch", "per-task"], ["fleet", "--full-build", "cold"],
        ["fleet-validate", "--full-build", "cold"],
        # fleet chunks are never cached, so the fleet commands take no --no-cache
        ["fleet", "--no-cache"], ["fleet-validate", "--no-cache"],
    ])
    def test_retired_kernel_bench_options_rejected(self, argv):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def _subcommands():
    import argparse

    from repro.__main__ import build_parser
    actions = build_parser()._subparsers._group_actions
    return sorted(name for action in actions
                  if isinstance(action, argparse._SubParsersAction)
                  for name in action.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_help_renders(command, capsys):
    # argparse %-formats help strings when it renders them, so a bare
    # "%" in one (e.g. "1% criteria") crashes --help with a TypeError.
    from repro.__main__ import main
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out

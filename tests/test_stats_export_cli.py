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
    def test_report_stdout_is_the_report_alone(self, monkeypatch, capsys,
                                                tmp_path):
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
        path = tmp_path / "report.txt"
        assert main(["report", "--output", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == made[0].render() + "\n"
        assert path.read_text(encoding="utf-8") == out
        assert "alpha text" in out and "beta text" in out
        assert "--- alpha ---" in out  # no wall time in the report
        assert "running alpha..." in err and "running beta..." in err
        # The per-section timings go to stderr at every worker count.
        from repro.analysis.reporting import render_task_timings
        assert render_task_timings(made[0].timings) in err

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
        (["trace", "house", "--commands", "-1"],
         "command counts must be >= 0, got legit=-1, attacks=1"),
        (["trace", "house", "--attacks", "-1"],
         "command counts must be >= 0, got legit=2, attacks=-1"),
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
        # No result cache: no command takes --no-cache, and `cache` is gone
        ["fleet", "--no-cache"], ["fleet-validate", "--no-cache"],
        ["cache"], ["cache", "--prune"], ["report", "--no-cache"],
        ["table", "table2", "--no-cache"],
        # The demo is the quickstart's fixed-seed scenario: no --seed.
        ["demo", "--seed", "5"],
    ])
    def test_retired_kernel_bench_options_rejected(self, argv):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


    def test_trace_jsonl_notice_is_stderr(self, capsys, tmp_path):
        # stdout is the waterfall alone, as without --jsonl; the notice
        # naming the span file goes to stderr like --output's.
        from repro.__main__ import main
        argv = ["trace", "house", "--commands", "1", "--attacks", "0"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "spans.jsonl"
        assert main([*argv, "--jsonl", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert captured.err == f"(spans written to {path})\n"
        assert path.read_text(encoding="utf-8").count("\n") > 0


# Every subcommand's option strings, --help aside.  The sweep
# subcommands share one handler that passes each parsed flag to its
# runner, so an option appears here only with a runner keyword to take it.
CLI_OPTIONS = {
    "report": ["--seed", "--workers", "--scale", "--output"],
    "table": ["--seed", "--workers", "--scale"],
    "fig": ["--seed"],
    "campaign": ["--seed", "--workers", "--homes"],
    "fleet": ["--seed", "--workers", "--homes", "--shards", "--chunk-size",
              "--fidelity", "--attack-prevalence", "--progress", "--output"],
    "fleet-validate": ["--seed", "--workers", "--homes", "--shards", "--progress",
                       "--strict", "--output"],
    "endurance": ["--seed", "--workers"],
    "resilience": ["--seed", "--workers", "--scale", "--testbed", "--output"],
    "loadtest": ["--seed", "--workers", "--smoke", "--utterances", "--output"],
    "recognition-robustness": ["--seed", "--workers", "--smoke", "--output"],
    "trace": ["--seed", "--speaker", "--commands", "--attacks", "--jsonl"],
    "demo": [],
}


def test_cli_option_set_is_pinned():
    import argparse

    from repro.__main__ import build_parser
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    options = {name: [option for action in parser._actions
                      for option in action.option_strings
                      if option not in ("-h", "--help")]
               for name, parser in sub.choices.items()}
    assert options == CLI_OPTIONS
    assert sum(map(len, options.values())) == 48


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

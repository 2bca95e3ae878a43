"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``report``      — regenerate every table and figure into one text report
``table``       — one of table1 | table2 | table3 | table4
``fig``         — one of 3 | 4 | 6 | 7 | 8 | 9 | 10
``campaign``    — the multi-home media campaign experiment
``fleet``       — stream a synthesized fleet of 10k-1M homes (fleet tables)
``fleet-validate`` — cross-validate fast vs full fleet fidelity (KS + χ²)
``endurance``   — the hold-endurance sweep
``resilience``  — fault rate x retry policy sweep (availability under faults)
``loadtest``    — bursty multi-speaker load: throughput vs hold-time tail
``recognition-robustness`` — matcher x traffic-morphing adversary accuracy grid
``trace``       — run one traced scenario; waterfall + phase timings from spans
``demo``        — the quickstart scenario, narrated
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import sys
from typing import Optional

from repro.errors import ReproError
from repro.experiments.campaign import run_campaign
from repro.experiments.hold_endurance import run_hold_endurance
from repro.experiments.loadtest import run_loadtest
from repro.experiments.recognition_robustness import run_recognition_robustness
from repro.experiments.resilience import run_resilience


def _print_result(text: str, path: Optional[str]) -> None:
    """Print ``text`` and write the same bytes to ``--output``'s path,
    when one was given (the notice goes to stderr, so stdout stays the
    result alone)."""
    text += "\n"
    sys.stdout.write(text)
    if path:
        pathlib.Path(path).write_text(text, encoding="utf-8")
        print(f"(written to {path})", file=sys.stderr)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_task_timings
    from repro.experiments.report import generate_report

    report = generate_report(scale=args.scale, seed=args.seed,
                             progress=functools.partial(print, file=sys.stderr),
                             workers=args.workers)
    _print_result(report.render(), args.output)
    print(render_task_timings(report.timings), file=sys.stderr)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which == "table1":
        from repro.experiments.table1 import run_table1

        print(run_table1(seed=args.seed).render())
        return 0
    from repro.experiments.rssi_tables import run_rssi_table

    testbed = {"table2": "house", "table3": "apartment", "table4": "office"}[args.which]
    result = run_rssi_table(testbed, seed=args.seed, scale=args.scale,
                            workers=args.workers)
    print(result.render_with_paper())
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    which = args.which
    seed = args.seed
    if which == "3":
        from repro.experiments.fig3 import run_fig3

        print(run_fig3(seed=seed).render())
    elif which == "4":
        from repro.experiments.fig4 import run_fig4

        print(run_fig4(seed=seed).render())
    elif which == "6":
        from repro.experiments.fig6 import corpus_report, run_fig6

        print(corpus_report())
        print(run_fig6("echo", seed=seed).render())
        print(run_fig6("google", seed=seed).render())
    elif which == "7":
        from repro.experiments.fig7 import run_fig7

        for kind in ("echo", "google"):
            print(run_fig7(kind, seed=seed).render())
    elif which in ("8", "9"):
        from repro.experiments.rssi_maps import run_rssi_map

        deployment = 0 if which == "8" else 1
        for testbed in ("house", "apartment", "office"):
            print(run_rssi_map(testbed, deployment, seed=seed).render())
            print()
    elif which == "10":
        from repro.experiments.fig10 import run_fig10

        print(run_fig10(seed=seed).render())
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """A sweep subcommand: call the runner its subparser names with
    every parsed flag but ``--output`` as a keyword, and print the
    table."""
    flags = dict(vars(args))
    runner = flags.pop("runner")
    output = flags.pop("output", None)
    del flags["command"], flags["func"]
    _print_result(runner(**flags).render(), output)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.experiments.fleet import FleetConfig, run_fleet
    from repro.experiments.synthesis import PopulationModel

    population = PopulationModel(attack_prevalence=args.attack_prevalence)
    config = FleetConfig(
        homes=args.homes,
        shards=args.shards,
        seed=args.seed,
        chunk_size=args.chunk_size,
        fidelity=args.fidelity,
        population=population,
    )
    result = run_fleet(config, workers=args.workers, progress=args.progress)
    _print_result(result.render(), args.output)
    print(result.render_throughput(), file=sys.stderr)
    return 0


def _cmd_fleet_validate(args: argparse.Namespace) -> int:
    from repro.experiments.fleet_validate import run_fleet_validate

    result = run_fleet_validate(
        homes=args.homes,
        shards=args.shards,
        seed=args.seed,
        workers=args.workers,
        progress=args.progress,
    )
    _print_result(result.render(), args.output)
    print(result.render_throughput(), file=sys.stderr)
    if args.strict and not result.all_passed:
        print("FAIL: a testbed's fast-vs-full statistics exceeded the "
              "1% critical values", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.trace import run_trace

    report = run_trace(
        testbed_name=args.scenario,
        speaker_kind=args.speaker,
        seed=args.seed,
        legit=args.commands,
        attacks=args.attacks,
    )
    print(report.render())
    if args.jsonl:
        path = report.write_jsonl(args.jsonl)
        print(f"(spans written to {path})", file=sys.stderr)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import runpy

    quickstart = pathlib.Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if quickstart.exists():
        runpy.run_path(str(quickstart), run_name="__main__")
        return 0
    print("examples/quickstart.py not found; run from a source checkout", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="VoiceGuard (DSN 2023) reproduction toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=3)
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for independent runs (0 = one per CPU; "
             "1 = serial, identical to the historical behaviour)")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", parents=[common, workers],
                            help="regenerate everything")
    report.add_argument("--scale", type=float, default=0.3)
    report.add_argument("--output", default=None)
    report.set_defaults(func=_cmd_report)

    table = sub.add_parser("table", parents=[common, workers],
                           help="regenerate one paper table")
    table.add_argument("which", choices=["table1", "table2", "table3", "table4"])
    table.add_argument("--scale", type=float, default=1.0)
    table.set_defaults(func=_cmd_table)

    fig = sub.add_parser("fig", parents=[common], help="regenerate one paper figure")
    fig.add_argument("which", choices=["3", "4", "6", "7", "8", "9", "10"])
    fig.set_defaults(func=_cmd_fig)

    campaign = sub.add_parser("campaign", parents=[common, workers],
                              help="multi-home media campaign")
    campaign.add_argument("--homes", type=int, default=6)
    campaign.set_defaults(func=_cmd_sweep, runner=run_campaign)

    fleet = sub.add_parser(
        "fleet", parents=[common, workers],
        help="stream a synthesized fleet of homes through the engine; "
             "constant memory at any size, table identical at any "
             "worker count / chunking / shard order")
    fleet.add_argument("--homes", type=int, default=10000,
                       help="fleet size (10k runs in seconds; 1M is fine)")
    fleet.add_argument("--shards", type=int, default=8,
                       help="seed-derivation shards; a home's draws depend "
                            "only on (seed, shard, offset)")
    fleet.add_argument("--chunk-size", type=int, default=256,
                       help="homes per pool task (amortizes dispatch cost)")
    fleet.add_argument("--fidelity", choices=["fast", "full"], default="fast",
                       help="fast = reduced-order home model; full = "
                            "packet-level scenario per home (validation only)")
    fleet.add_argument("--attack-prevalence", type=float, default=0.25,
                       help="fraction of homes the campaign reaches")
    fleet.add_argument("--progress", action="store_true",
                       help="counted progress on stderr: homes done, "
                            "homes/sec, ETA")
    fleet.add_argument("--output", default=None,
                       help="also write the fleet tables here")
    fleet.set_defaults(func=_cmd_fleet)

    fleet_validate = sub.add_parser(
        "fleet-validate", parents=[common, workers],
        help="cross-validate the reduced-order (fast) home model against "
             "packet-level (full) simulation on one matched population: "
             "KS on latency sketches, χ² on outcome counts, per testbed")
    fleet_validate.add_argument("--homes", type=int, default=120,
                                help="population size (full fidelity runs "
                                     "every home at packet level)")
    fleet_validate.add_argument("--shards", type=int, default=4)
    fleet_validate.add_argument("--progress", action="store_true",
                                help="counted progress on stderr")
    fleet_validate.add_argument("--strict", action="store_true",
                                help="exit 1 if any testbed fails the 1%% "
                                     "criteria (CI gating)")
    fleet_validate.add_argument("--output", default=None,
                                help="also write the validation report here")
    fleet_validate.set_defaults(func=_cmd_fleet_validate)

    endurance = sub.add_parser("endurance", parents=[common, workers],
                               help="hold-endurance sweep")
    endurance.set_defaults(func=_cmd_sweep, runner=run_hold_endurance)

    resilience = sub.add_parser("resilience", parents=[common, workers],
                                help="fault-injection sweep: availability & "
                                     "accuracy under push/scan/report faults")
    resilience.add_argument("--scale", type=float, default=0.25)
    resilience.add_argument("--testbed",
                            choices=["all", "house", "apartment", "office"],
                            default="all")
    resilience.add_argument("--output", default=None)
    resilience.set_defaults(func=_cmd_sweep, runner=run_resilience)

    loadtest = sub.add_parser(
        "loadtest", parents=[common, workers],
        help="bursty multi-speaker load test: resolved commands/sec vs "
             "hold-time p99 across 1-4 concurrent speakers, plus the "
             "strict (slot-starved) and degraded (fault-driven overload) "
             "stress cells")
    loadtest.add_argument("--smoke", action="store_true",
                          help="corner cells only (the CI load-smoke job)")
    loadtest.add_argument("--utterances", type=int, default=None,
                          help="commands spoken per cell (default 16; 6 "
                               "under --smoke)")
    loadtest.add_argument("--output", default=None,
                          help="also write the rendered table here")
    loadtest.set_defaults(func=_cmd_sweep, runner=run_loadtest)

    recognition = sub.add_parser(
        "recognition-robustness", parents=[common, workers],
        help="matcher x traffic-morphing adversary accuracy grid: the "
             "signature matcher and the trainable knn/mlp recognizers "
             "against padding/jitter/dummy-burst adversaries, plus "
             "retrained-on-morph adaptive rows")
    recognition.add_argument("--smoke", action="store_true",
                             help="echo corner cells only (the CI "
                                  "recognition-smoke job)")
    recognition.add_argument("--output", default=None,
                             help="also write the rendered table here")
    recognition.set_defaults(func=_cmd_sweep, runner=run_recognition_robustness)

    trace = sub.add_parser("trace", parents=[common],
                           help="trace one scenario: per-command waterfall and "
                                "Fig. 4 phase timings reconstructed from spans")
    trace.add_argument("scenario", choices=["house", "apartment", "office"],
                       help="testbed to trace")
    trace.add_argument("--speaker", choices=["echo", "google"], default="echo")
    trace.add_argument("--commands", type=int, default=2,
                       help="legitimate owner commands to issue")
    trace.add_argument("--attacks", type=int, default=1,
                       help="replayed attacks to issue afterwards")
    trace.add_argument("--jsonl", default=None,
                       help="also dump the span forest as JSONL here")
    trace.set_defaults(func=_cmd_trace)

    demo = sub.add_parser("demo", help="run the quickstart demo")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    A library error (:class:`~repro.errors.ReproError`) is a usage
    error: one ``error: ...`` line on stderr and exit 2, like argparse's.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Concurrent-guard load benchmark: commands/sec vs hold-latency knee.

Two things, in order:

1. **Equivalence gate** — before any number is trusted, a single-speaker
   serialized workload is run twice, once with the concurrency knobs at
   their inert defaults and once with them fully on (query slots,
   batching, held-byte budget).  The guard command-event streams and
   the final sim clock must be byte-identical: with one command in
   flight the coordinator must be a provable no-op, the same discipline
   the sim/obs/fleet benches enforce.

2. **Knee chart** — the loadtest grid (1/2/4 speakers x offered-load
   levels, coordinated mode, plus the strict and degraded stress cells)
   measured for resolved commands/sec against the hold-time p50/p99.
   The knee is the fastest cell per speaker count whose p99 stays under
   the bound with nothing lost to timeouts; the full run enforces that
   the 4-speaker knee sustains >= 2x the single-flow commands/sec.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_load.py
    PYTHONPATH=src python benchmarks/bench_load.py --smoke

Writes ``benchmarks/results/BENCH_load.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

from repro.core.config import VoiceGuardConfig
from repro.experiments.loadtest import (
    LoadCell,
    run_loadtest,
    saturation_knee,
)
from repro.experiments.scenarios import build_scenario
from repro.experiments.workload import SevenDayWorkload

RATIO_FLOOR = 2.0  # 4-speaker knee vs single-flow resolved commands/sec
P99_BOUND = 10.0  # seconds of hold p99 a cell may reach and still be pre-knee


def assert_single_flow_identical(seed: int, smoke: bool) -> int:
    """Knobs-on vs knobs-off on a serialized single-speaker workload.

    Returns the command count; raises AssertionError on any drift.
    """
    legit, malicious = (4, 3) if smoke else (12, 9)
    streams = []
    clocks = []
    for config in (
        VoiceGuardConfig(),
        VoiceGuardConfig(max_concurrent_queries=2, decision_batching=True,
                         held_byte_budget=65_536),
    ):
        scenario = build_scenario("house", "echo", seed=seed, config=config)
        SevenDayWorkload(scenario).run(legit, malicious)
        streams.append(scenario.guard.log.event_stream())
        clocks.append(scenario.sim.now)
    if streams[0] != streams[1]:
        raise AssertionError(
            "concurrency knobs changed the single-flow guard event stream"
        )
    if clocks[0] != clocks[1]:
        raise AssertionError(
            f"concurrency knobs moved the sim clock: "
            f"{clocks[0]!r} != {clocks[1]!r}"
        )
    return len(streams[0])


def _cell_payload(cell: LoadCell) -> dict:
    def num(value: float) -> float:
        return round(value, 6) if value == value else None

    return {
        "speakers": cell.speakers,
        "rate": cell.rate,
        "mode": cell.mode,
        "offered_per_sec": num(cell.offered_rate),
        "commands": cell.commands,
        "resolved_per_sec": num(cell.throughput),
        "hold_p50_s": num(cell.hold_p50),
        "hold_p99_s": num(cell.hold_p99),
        "released": cell.released,
        "blocked": cell.blocked,
        "timeouts": cell.timeouts,
        "batched": cell.batched,
        "queued": cell.queued,
        "expired_in_queue": cell.expired,
        "overflows": cell.overflows,
        "failsafes": cell.failsafes,
        "queue_peak": int(cell.queue_peak),
    }


def run_bench(seed: int = 3, smoke: bool = False) -> dict:
    gate_commands = assert_single_flow_identical(seed, smoke)

    start = time.perf_counter()
    result = run_loadtest(seed=seed, smoke=smoke)
    elapsed = time.perf_counter() - start

    knee1 = saturation_knee(result.cells, 1, p99_bound=P99_BOUND)
    knee4 = saturation_knee(result.cells, 4, p99_bound=P99_BOUND)
    single = knee1.throughput if knee1 is not None else float("nan")
    at_knee = knee4.throughput if knee4 is not None else float("nan")
    ratio = at_knee / single if single and single == single else float("nan")
    return {
        "bench": "loadtest",
        "seed": seed,
        "smoke": smoke,
        "streams_identical": True,  # asserted above, before any timing
        "gate_commands": gate_commands,
        "cells": [_cell_payload(cell) for cell in result.cells],
        "knee": {
            "p99_bound_s": P99_BOUND,
            "single_flow": _cell_payload(knee1) if knee1 else None,
            "four_speaker": _cell_payload(knee4) if knee4 else None,
        },
        "single_flow_resolved_per_sec": round(single, 6),
        "knee_resolved_per_sec": round(at_knee, 6),
        "throughput_ratio": round(ratio, 6) if ratio == ratio else None,
        "ratio_floor": RATIO_FLOOR,
        "wall_elapsed_s": round(elapsed, 3),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def render(payload: dict) -> str:
    lines = [
        f"concurrent-guard load bench (seed {payload['seed']}"
        f"{', smoke' if payload['smoke'] else ''}):",
        f"  single-flow equivalence gate: knobs on vs off byte-identical "
        f"over {payload['gate_commands']} events",
    ]
    for cell in payload["cells"]:
        p99 = cell["hold_p99_s"]
        lines.append(
            f"  {cell['speakers']}spk {cell['mode']:<11} {cell['rate']:<4}: "
            f"{cell['resolved_per_sec']:.3f} resolved/s, "
            f"hold p99 {p99 if p99 is not None else float('nan'):.2f}s, "
            f"batched {cell['batched']}, queued {cell['queued']}, "
            f"overflows {cell['overflows']}"
        )
    ratio = payload["throughput_ratio"]
    lines.append(
        f"  knee: {payload['knee_resolved_per_sec']:.3f} resolved/s at 4 "
        f"speakers vs {payload['single_flow_resolved_per_sec']:.3f} "
        f"single-flow ({ratio:.1f}x, floor {payload['ratio_floor']:.0f}x, "
        f"p99 bound {payload['knee']['p99_bound_s']:.0f}s)"
        if ratio is not None else "  knee: not reached (no eligible cell)"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="corner cells only: exercises the path and the "
                             "equivalence gate, numbers not citable")
    parser.add_argument("--output",
                        default="benchmarks/results/BENCH_load.json")
    args = parser.parse_args(argv)

    payload = run_bench(seed=args.seed, smoke=args.smoke)
    print(render(payload))

    target = pathlib.Path(args.output)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"(written to {target})")

    ratio = payload["throughput_ratio"]
    if ratio is None:
        print("FAIL: the sweep never found a pre-knee cell at both 1 and 4 "
              "speakers", file=sys.stderr)
        return 1
    if not args.smoke and ratio < RATIO_FLOOR:
        print(f"FAIL: 4-speaker knee throughput {ratio:.2f}x single-flow, "
              f"below the {RATIO_FLOOR:.0f}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

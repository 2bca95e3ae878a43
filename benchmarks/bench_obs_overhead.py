#!/usr/bin/env python
"""Observability overhead microbenchmark.

Runs the Table-2 house cell (Echo Dot, location 1) twice — tracing off
and tracing on — and measures the wall-time overhead of span collection.
Before timing is trusted, the two runs' guard event streams are checked
for equality: instrumentation that changed a single event would be a
bug, not an acceptable cost.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke

Prints the two timings and exits 1 if the event streams differ or the
overhead is over budget.  The full run enforces the < 10 % budget;
``--smoke`` exercises the same path at a tiny workload where wall-clock
noise dominates, so it only enforces a 50 % ceiling, which still
catches span collection grown grossly expensive.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Tuple

from repro.experiments.scenarios import build_scenario
from repro.experiments.workload import SevenDayWorkload

OVERHEAD_BUDGET = 0.10  # tracing may cost at most 10 % wall time
SMOKE_OVERHEAD_BUDGET = 0.50  # the smoke workload's noisy ceiling

# The Table II house/echo/loc1 cell counts (paper totals).
FULL_COUNTS = (91, 69)
SMOKE_COUNTS = (10, 7)


def _run_cell(tracing: bool, seed: int, legit: int,
              malicious: int) -> Tuple[float, List[tuple], int]:
    """One timed end-to-end cell run; returns (seconds, stream, spans)."""
    start = time.perf_counter()
    scenario = build_scenario("house", "echo", deployment=0, seed=seed,
                              owner_count=2, tracing=tracing)
    workload = SevenDayWorkload(scenario)
    workload.run(legit, malicious)
    scenario.speaker.settle_all()
    elapsed = time.perf_counter() - start
    return elapsed, scenario.guard.log.event_stream(), len(scenario.env.obs.tracer)


def run_bench(seed: int = 7, repeats: int = 3, smoke: bool = False) -> dict:
    """Time tracing-off vs tracing-on; returns the payload that
    :func:`render` prints."""
    legit, malicious = SMOKE_COUNTS if smoke else FULL_COUNTS
    repeats = 1 if smoke else repeats
    off_times: List[float] = []
    on_times: List[float] = []
    off_stream = on_stream = None
    span_count = 0
    for _ in range(repeats):
        elapsed, off_stream, _ = _run_cell(False, seed, legit, malicious)
        off_times.append(elapsed)
        elapsed, on_stream, span_count = _run_cell(True, seed, legit, malicious)
        on_times.append(elapsed)
    identical = off_stream == on_stream
    baseline, traced = min(off_times), min(on_times)
    overhead = (traced - baseline) / baseline if baseline > 0 else 0.0
    return {
        "bench": "obs_overhead",
        "scenario": "house/echo/loc1",
        "legit_count": legit,
        "malicious_count": malicious,
        "seed": seed,
        "repeats": repeats,
        "smoke": smoke,
        "baseline_s": baseline,
        "traced_s": traced,
        "overhead_fraction": overhead,
        "overhead_budget": SMOKE_OVERHEAD_BUDGET if smoke else OVERHEAD_BUDGET,
        "spans_collected": span_count,
        "events_identical": identical,
    }


def render(payload: dict) -> str:
    return (
        f"obs overhead bench ({payload['scenario']}, "
        f"{payload['legit_count']}+{payload['malicious_count']} commands, "
        f"best of {payload['repeats']}):\n"
        f"  tracing off : {payload['baseline_s']:.3f}s\n"
        f"  tracing on  : {payload['traced_s']:.3f}s  "
        f"({payload['spans_collected']} spans)\n"
        f"  overhead    : {payload['overhead_fraction']:+.2%} "
        f"(budget {payload['overhead_budget']:.0%})\n"
        f"  event streams identical: {payload['events_identical']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload: checks the path and a loose "
                             "overhead ceiling")
    args = parser.parse_args(argv)

    payload = run_bench(seed=args.seed, repeats=args.repeats, smoke=args.smoke)
    print(render(payload))

    if not payload["events_identical"]:
        print("FAIL: tracing changed the guard's event stream", file=sys.stderr)
        return 1
    if payload["overhead_fraction"] > payload["overhead_budget"]:
        print(f"FAIL: tracing overhead {payload['overhead_fraction']:.2%} "
              f"exceeds the {payload['overhead_budget']:.0%} budget",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

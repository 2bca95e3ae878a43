#!/usr/bin/env python
"""Full-fidelity fleet benchmark: warm-start pool vs cold world builds.

Streams one synthesized population through ``--fidelity full`` twice —
once restoring each home from the warm-start scenario pool
(``full_build="pooled"``), once rebuilding every world from scratch
(``full_build="cold"``) — and reports homes/sec for both.  Before any
cell is timed, every home in the population is simulated down both
paths and its guard event stream asserted byte-identical, and each
timed repetition's rendered fleet table is asserted equal to the
reference; the speedup is only meaningful because the two paths are
provably the same simulation.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_fleet_full.py
    PYTHONPATH=src python benchmarks/bench_fleet_full.py --smoke

Writes ``benchmarks/results/BENCH_fleet_full.json``.  The full run
(200 homes) enforces the >= 5x pooled-vs-cold homes/sec floor;
``--smoke`` exercises the path and the equality assertions only.

Methodology and the snapshot/reset protocol are documented next to the
artifact in ``benchmarks/results/BENCH_fleet_full.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from typing import List

from repro.experiments.fleet import FleetConfig, clear_scenario_pool, run_fleet
from repro.experiments.pool import ScenarioPool, build_home_cold, pool_key
from repro.experiments.synthesis import HomeSpec, PopulationModel
from repro.experiments.workload import SevenDayWorkload

SPEEDUP_FLOOR = 5.0  # pooled vs cold homes/sec, enforced at N >= 200

FULL_HOMES = 200
SMOKE_HOMES = 12
SHARDS = 4
REPEATS = 2

# The build-bound regime the pool targets: house worlds (training +
# calibration dominate their builds) with short per-home workloads, so
# per-home cost is world construction, not episode simulation.  Two
# plan-scale buckets keep template count realistic without letting
# bucket-miss builds dominate the pooled side at N=200.
BENCH_POPULATION = PopulationModel(
    testbed_mix=(("house", 1.0),),
    plan_scales=(1.0, 1.075),
    attack_prevalence=0.25,
    legit_commands_mean=2.0,
    attacks_mean=1.0,
)


def _bench_config(homes: int, seed: int, full_build: str) -> FleetConfig:
    return FleetConfig(homes=homes, shards=SHARDS, seed=seed, chunk_size=8,
                       fidelity="full", full_build=full_build,
                       population=BENCH_POPULATION)


def _specs(config: FleetConfig) -> List[HomeSpec]:
    return [
        config.population.home(config.seed, shard, offset,
                               config.shard_start(shard) + offset)
        for shard in range(config.shards)
        for offset in range(config.shard_size(shard))
    ]


def _home_stream(scenario, spec: HomeSpec) -> tuple:
    workload = SevenDayWorkload(scenario)
    workload.run(spec.legit_commands, spec.attacks)
    scenario.speaker.settle_all()
    return scenario.guard.log.event_stream()


def verify_equality(config: FleetConfig) -> dict:
    """Phase 1: every home's pooled stream == its cold stream.

    Runs before any timing.  As a side effect the process-local
    calibration/training memos and the verification pool's fleet-world
    cache warm up; the timed pooled cells measure the steady state a
    long fleet run amortizes into, while timed cold cells rebuild
    worlds with memos bypassed by construction (``memo_bucket=None``).
    """
    pool = ScenarioPool()
    mismatches = []
    start = time.perf_counter()
    specs = _specs(config)
    for spec in specs:
        pooled_stream = _home_stream(pool.acquire(spec), spec)
        cold_stream = _home_stream(build_home_cold(spec), spec)
        if pooled_stream != cold_stream:
            mismatches.append(spec.index)
    return {
        "homes_verified": len(specs),
        "buckets": pool.template_builds,
        "bucket_keys": sorted(str(pool_key(spec)) for spec in
                              {pool_key(s): s for s in specs}.values()),
        "stream_mismatches": mismatches,
        "elapsed_s": time.perf_counter() - start,
    }


def run_bench(seed: int = 3, smoke: bool = False, repeats: int = REPEATS) -> dict:
    homes = SMOKE_HOMES if smoke else FULL_HOMES
    pooled_config = _bench_config(homes, seed, "pooled")
    cold_config = _bench_config(homes, seed, "cold")

    verification = verify_equality(pooled_config)

    # Reference table: the pooled serial run (after verification the
    # worker pool is cold-started fresh so the first timed rep pays
    # its own template builds; later reps are pure steady state).
    clear_scenario_pool()
    table_mismatches = 0
    pooled_cells: List[dict] = []
    cold_cells: List[dict] = []
    reference_table = None
    for _ in range(max(1, repeats)):
        pooled = run_fleet(pooled_config, workers=1)
        if reference_table is None:
            reference_table = pooled.render()
        elif pooled.render() != reference_table:
            table_mismatches += 1
        pooled_cells.append({"elapsed_s": pooled.elapsed,
                             "homes_per_sec": pooled.homes_per_sec})
        cold = run_fleet(cold_config, workers=1)
        if cold.render() != reference_table:
            table_mismatches += 1
        cold_cells.append({"elapsed_s": cold.elapsed,
                           "homes_per_sec": cold.homes_per_sec})

    best_pooled = max(cell["homes_per_sec"] for cell in pooled_cells)
    best_cold = max(cell["homes_per_sec"] for cell in cold_cells)
    speedup = best_pooled / best_cold if best_cold > 0 else float("inf")
    return {
        "bench": "fleet_full_fidelity",
        "homes": homes,
        "seed": seed,
        "smoke": smoke,
        "repeats": max(1, repeats),
        "verification": verification,
        "pooled_cells": pooled_cells,
        "cold_cells": cold_cells,
        "pooled_homes_per_sec": best_pooled,
        "cold_homes_per_sec": best_cold,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "streams_identical": not verification["stream_mismatches"],
        "tables_identical": table_mismatches == 0,
        "table_mismatches": table_mismatches,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def render(payload: dict) -> str:
    verification = payload["verification"]
    lines = [
        f"fleet full-fidelity bench ({payload['homes']} homes, "
        f"seed {payload['seed']}):",
        f"  equality gate     : {verification['homes_verified']} homes x "
        f"(pooled, cold) byte-identical guard streams "
        f"across {verification['buckets']} world buckets "
        f"({verification['elapsed_s']:.1f}s)"
        if payload["streams_identical"] else
        f"  equality gate     : FAILED on homes "
        f"{verification['stream_mismatches']}",
    ]
    for label, cells in (("pooled", payload["pooled_cells"]),
                         ("cold", payload["cold_cells"])):
        for index, cell in enumerate(cells):
            lines.append(
                f"  {label:<7} rep {index + 1}     : "
                f"{cell['elapsed_s']:.2f}s  "
                f"({cell['homes_per_sec']:.1f} homes/sec)")
    lines.append(
        f"  speedup           : {payload['speedup']:.2f}x pooled vs cold "
        f"(floor {payload['speedup_floor']:.0f}x at N>={FULL_HOMES})")
    lines.append(
        f"  tables identical across all reps: {payload['tables_identical']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help="timed repetitions per cell (best is reported)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_HOMES}-home run: exercises the path and "
                             "the equality gate, numbers not citable")
    parser.add_argument("--output",
                        default="benchmarks/results/BENCH_fleet_full.json")
    args = parser.parse_args(argv)

    payload = run_bench(seed=args.seed, smoke=args.smoke,
                        repeats=args.repeats)
    print(render(payload))

    target = pathlib.Path(args.output)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"(written to {target})")

    if not payload["streams_identical"]:
        print("FAIL: pooled and cold guard event streams differ — the pool "
              "is not a faithful snapshot/restore", file=sys.stderr)
        return 1
    if not payload["tables_identical"]:
        print(f"FAIL: {payload['table_mismatches']} timed cell(s) rendered a "
              "different fleet table than the reference", file=sys.stderr)
        return 1
    if not args.smoke and payload["speedup"] < SPEEDUP_FLOOR:
        print(f"FAIL: pooled speedup {payload['speedup']:.2f}x below the "
              f"{SPEEDUP_FLOOR:.0f}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""RSSI kernel microbenchmarks: radio hot path, wall geometry, event queue.

Times every layer of the radio hot path: an unmemoized scalar
reference, the memoized scalar path, the vectorized batch APIs, the
wall-crossing kernels, a floor trace, and event-queue dispatch.  The
reference and the batched grid kernel are asserted equal before either
is timed, and so are the batched and the per-tick ``instant_rssi``
trace: a speedup that changed the numbers would be a bug, not a win.

The reference is not a frozen copy of the pre-optimization code.  It
drops the memos (it hashes the shadowing cell on every call), but it
counts walls and slabs with the production
``FloorPlan.walls_crossed_scalar`` and ``slab_penalties``.  Making
those faster makes the reference faster too, so the ``*_vs_reference``
and ``walls_many_vs_scalar`` ratios shrink when the scalar side
improves; read them with the absolute ``usec_per_op`` beside them.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_rssi_kernel.py
    PYTHONPATH=src python benchmarks/bench_rssi_kernel.py --seconds 0.05

Writes ``benchmarks/results/BENCH_rssi.json``.  Exits 1 if the batched
grid kernel is less than 5x the scalar reference, or if reading the
O(1) pending-event count is not cheaper than a queue operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import platform
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from repro.core.threshold import perimeter_route
from repro.home.devices import TRACE_SAMPLE_COUNT, TRACE_SAMPLE_PERIOD
from repro.home.environment import HomeEnvironment
from repro.radio.geometry import Point, distance
from repro.radio.propagation import PropagationModel
from repro.radio.testbeds import testbed_by_name
from repro.sim.events import EventQueue
from repro.sim.process import PeriodicTask

GRID_SAMPLES = 16  # the paper's 4 orientations x 4 measurements
GRID_MAP_FLOOR = 5.0  # batched grid kernel vs the scalar reference


# -- the unmemoized scalar reference --------------------------------------
def reference_mean_rssi(model: PropagationModel, tx: Point, rx: Point) -> float:
    """``mean_rssi`` with every memo off: per-call SHA-256, and the
    production per-pair wall and slab counts (see the module note)."""
    p = model.params
    d = max(distance(tx, rx), p.reference_distance)
    path_loss = p.path_loss_per_decade * np.log10(d / p.reference_distance)
    walls = model.plan.walls_crossed_scalar(tx, rx)
    slab_loss = model.plan.slab_penalties(tx, rx, p.floor_penalty)
    key = (
        f"{model._seed}|{round(tx.x * 4)},{round(tx.y * 4)},{round(tx.z * 4)}"
        f"|{round(rx.x * 4)},{round(rx.y * 4)},{round(rx.z * 4)}"
    )
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "little") / float(2**64)
    unit2 = int.from_bytes(digest[8:16], "little") / float(2**64)
    shadow = (unit + unit2 - 1.0) * p.shadowing_sigma * 2.0
    rssi = p.reference_rssi - path_loss - p.wall_penalty * walls - slab_loss + shadow
    return float(max(rssi, p.rssi_floor))


def reference_average_rssi(
    model: PropagationModel,
    tx: Point,
    rx: Point,
    rng: np.random.Generator,
    samples: int = GRID_SAMPLES,
    body_blocked_fraction: float = 0.25,
) -> float:
    """``average_rssi`` on the unmemoized reference: full mean recompute
    per sample."""
    p = model.params
    readings = []
    for index in range(samples):
        blocked = (index / samples) < body_blocked_fraction
        rssi = reference_mean_rssi(model, tx, rx)
        rssi += float(rng.normal(0.0, p.sample_noise_sigma))
        if blocked:
            rssi -= float(abs(rng.normal(p.body_occlusion, p.body_occlusion / 2)))
        readings.append(float(max(rssi, p.rssi_floor)))
    return float(np.mean(readings))


def scalar_trace(device, beacon, callback) -> None:
    """A floor trace with every sample from ``instant_rssi`` (the
    reference for ``MobileDevice.record_trace``'s per-trace pass)."""
    samples = []

    def take_sample(now: float) -> None:
        samples.append(device.scanner.instant_rssi(beacon, now))
        if len(samples) >= TRACE_SAMPLE_COUNT:
            task.stop()
            callback(samples)

    task = PeriodicTask(device.sim, TRACE_SAMPLE_PERIOD, take_sample, first_delay=0.0)
    task.start()


def _walking_trace(testbed_name: str, seed: int, record) -> Callable[[], int]:
    """One op: walk the testbed's stair route (the speaker room's
    perimeter where there is none) and record a 40-sample trace that
    starts 1.0-1.3 s into it, so no two traces share a position.
    Returns the op; it counts samples."""
    env = HomeEnvironment(testbed_by_name(testbed_name), seed=seed)
    route = env.testbed.routes.get("up") or perimeter_route(env.testbed.speaker_room(0))
    owner = env.add_person("owner", route.waypoints[0])
    phone = env.add_smartphone("phone", owner)
    jitter = np.random.default_rng(seed)

    def op() -> int:
        traces: List[list] = []
        owner.follow(route)
        env.sim.run_for(1.0 + 0.3 * float(jitter.random()))
        record(phone, env.speaker_beacon, traces.append)
        env.sim.run_for(TRACE_SAMPLE_COUNT * TRACE_SAMPLE_PERIOD)
        op.traces.extend(traces)
        op.states = (owner._rng.bit_generator.state, phone.scanner._rng.bit_generator.state)
        return TRACE_SAMPLE_COUNT

    op.traces = []
    return op


# -- timing ----------------------------------------------------------------
def _time_ops(fn: Callable[[], int], min_seconds: float = 0.2) -> Dict[str, float]:
    """Run ``fn`` (returns ops performed) until ``min_seconds`` elapse."""
    fn()  # warm-up: caches, numpy import paths, allocator
    ops = 0
    start = time.perf_counter()
    while True:
        ops += fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            break
    ops_per_sec = ops / elapsed
    return {
        "ops_per_sec": round(ops_per_sec, 1),
        "usec_per_op": round(1e6 / ops_per_sec, 3),
    }


def run_bench_rssi(
    testbed_name: str = "house",
    seed: int = 7,
    min_seconds: float = 0.2,
) -> Dict:
    """Time every layer of the RSSI substrate; returns the JSON payload."""
    testbed = testbed_by_name(testbed_name)
    plan = testbed.plan
    model = PropagationModel(plan, seed=seed)
    tx = testbed.speaker_point(0)
    grid: List[Point] = [mp.point for _, mp in sorted(plan.points.items())]
    far = grid[len(grid) // 2]

    benches: Dict[str, Dict[str, float]] = {}

    # mean_rssi: reference vs memoized vs vectorized-many.
    benches["mean_rssi_reference"] = _time_ops(
        lambda: sum(1 for rx in grid if reference_mean_rssi(model, tx, rx) > -999),
        min_seconds,
    )
    model.mean_rssi(tx, far)  # ensure a warm entry
    benches["mean_rssi_cached"] = _time_ops(
        lambda: sum(1 for _ in range(1000) if model.mean_rssi(tx, far) > -999),
        min_seconds,
    )

    def _many_pass() -> int:
        model._mean_cache.clear()  # time the compute, not the memo hit
        model.mean_rssi_many(tx, grid)
        return len(grid)

    benches["mean_rssi_many"] = _time_ops(_many_pass, min_seconds)

    # Noisy sampling: scalar loop vs one batched draw (warm mean).
    rng = np.random.default_rng(seed)
    blocked = [(i / GRID_SAMPLES) < 0.25 for i in range(GRID_SAMPLES)]

    def _scalar_samples() -> int:
        for flag in blocked:
            model.sample_rssi(tx, far, rng, body_blocked=flag)
        return GRID_SAMPLES

    benches["sample_rssi_scalar"] = _time_ops(_scalar_samples, min_seconds)
    benches["sample_rssi_batch"] = _time_ops(
        lambda: len(model.sample_rssi_batch(tx, far, rng, blocked)),
        min_seconds,
    )

    # The grid-map kernel (Figures 8/9): whole numbered grid, 16-sample
    # averages.  Before = the scalar reference; after = the batched
    # pipeline exactly as run_rssi_map drives it.  Same seeds, and the
    # outputs are asserted equal before either is timed.
    check_rng = np.random.default_rng(seed + 1)
    check_ref = [reference_average_rssi(model, tx, rx, check_rng) for rx in grid]
    model._mean_cache.clear()
    check_new = model.average_rssi_grid(
        tx, grid, np.random.default_rng(seed + 1), samples=GRID_SAMPLES
    )
    if check_ref != [float(v) for v in check_new]:
        raise AssertionError("batched grid kernel diverged from the scalar reference")

    def _grid_reference() -> int:
        grid_rng = np.random.default_rng(seed + 1)
        for rx in grid:
            reference_average_rssi(model, tx, rx, grid_rng)
        return len(grid)

    def _grid_batched() -> int:
        model._mean_cache.clear()
        grid_rng = np.random.default_rng(seed + 1)
        model.average_rssi_grid(tx, grid, grid_rng, samples=GRID_SAMPLES)
        return len(grid)

    benches["grid_map_reference"] = _time_ops(_grid_reference, min_seconds)
    benches["grid_map_batched"] = _time_ops(_grid_batched, min_seconds)

    # Wall-crossing kernels (one distant pair; per-pair ops).
    benches["walls_crossed_scalar"] = _time_ops(
        lambda: sum(1 for rx in grid if plan.walls_crossed_scalar(tx, rx) >= 0),
        min_seconds,
    )
    benches["walls_crossed_many"] = _time_ops(
        lambda: len(plan.walls_crossed_many(tx, grid)),
        min_seconds,
    )

    # A floor trace (one 40-sample walk): the per-trace batched pass of
    # record_trace against per-tick instant_rssi, on twin worlds whose
    # traces and generator states are asserted equal first.
    def batched(device, beacon, callback):
        device.record_trace(beacon, callback)

    checks = [_walking_trace(testbed_name, seed, rec) for rec in (scalar_trace, batched)]
    for check in checks:
        for _ in range(3):
            check()
    if checks[0].traces != checks[1].traces or checks[0].states != checks[1].states:
        raise AssertionError("batched trace diverged from per-tick instant_rssi")
    benches["trace_scalar"] = _time_ops(_walking_trace(testbed_name, seed, scalar_trace),
                                        min_seconds)
    benches["trace_batched"] = _time_ops(_walking_trace(testbed_name, seed, batched),
                                         min_seconds)

    # Event queue: dispatch throughput and the O(1) pending count.
    def _dispatch() -> int:
        queue = EventQueue()

        def sink() -> None:
            return None

        for i in range(2000):
            queue.push(float(i % 97), sink)
        while queue.pop() is not None:
            pass
        return 4000  # 2000 pushes + 2000 pops

    benches["event_push_pop"] = _time_ops(_dispatch, min_seconds)

    big = EventQueue()
    for i in range(10_000):
        big.push(float(i), lambda: None)
    benches["pending_events_read_10k"] = _time_ops(
        lambda: sum(1 for _ in range(10_000) if len(big) >= 0),
        min_seconds,
    )

    speedups = {
        "grid_map": round(
            benches["grid_map_batched"]["ops_per_sec"]
            / benches["grid_map_reference"]["ops_per_sec"],
            2,
        ),
        "mean_rssi_cached_vs_reference": round(
            benches["mean_rssi_cached"]["ops_per_sec"]
            / benches["mean_rssi_reference"]["ops_per_sec"],
            2,
        ),
        "mean_rssi_many_vs_reference": round(
            benches["mean_rssi_many"]["ops_per_sec"]
            / benches["mean_rssi_reference"]["ops_per_sec"],
            2,
        ),
        "sample_batch_vs_scalar": round(
            benches["sample_rssi_batch"]["ops_per_sec"]
            / benches["sample_rssi_scalar"]["ops_per_sec"],
            2,
        ),
        "walls_many_vs_scalar": round(
            benches["walls_crossed_many"]["ops_per_sec"]
            / benches["walls_crossed_scalar"]["ops_per_sec"],
            2,
        ),
        "trace_vs_scalar": round(
            benches["trace_batched"]["ops_per_sec"]
            / benches["trace_scalar"]["ops_per_sec"],
            2,
        ),
    }
    return {
        "meta": {
            "testbed": testbed_name,
            "grid_points": len(grid),
            "samples_per_location": GRID_SAMPLES,
            "walls": len(plan.walls),
            "seed": seed,
            "min_seconds_per_bench": min_seconds,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "benches": benches,
        "speedups": speedups,
        "units": {
            "grid_map_*": "locations (16-sample averages) per second",
            "mean_rssi_* / sample_* / walls_*": "single evaluations per second",
            "trace_*": "trace samples per second, sim ticks included",
            "event_push_pop": "queue operations per second",
            "pending_events_read_10k": "len() reads per second on a 10k heap",
        },
    }


def render_bench(payload: Dict) -> str:
    """Human-readable one-screen summary of a bench payload."""
    lines = [
        f"RSSI kernel bench — testbed {payload['meta']['testbed']}, "
        f"{payload['meta']['grid_points']} grid points, "
        f"{payload['meta']['walls']} walls",
        "",
        f"{'bench':32} {'ops/sec':>14} {'usec/op':>10}",
    ]
    for name, stats in payload["benches"].items():
        lines.append(
            f"{name:32} {stats['ops_per_sec']:>14,.0f} {stats['usec_per_op']:>10.2f}"
        )
    lines.append("")
    for name, ratio in payload["speedups"].items():
        lines.append(f"speedup {name:38} {ratio:>7.2f}x")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--testbed", choices=["house", "apartment", "office"],
                        default="house")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=0.2,
                        help="minimum wall time per microbenchmark")
    parser.add_argument("--output",
                        default="benchmarks/results/BENCH_rssi.json")
    args = parser.parse_args(argv)

    payload = run_bench_rssi(testbed_name=args.testbed, seed=args.seed,
                             min_seconds=args.seconds)
    print(render_bench(payload))

    target = pathlib.Path(args.output)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"(written to {target})")

    if payload["speedups"]["grid_map"] < GRID_MAP_FLOOR:
        print(f"FAIL: grid_map speedup {payload['speedups']['grid_map']}x "
              f"below the {GRID_MAP_FLOOR}x floor", file=sys.stderr)
        return 1
    benches = payload["benches"]
    if (benches["pending_events_read_10k"]["usec_per_op"]
            >= benches["event_push_pop"]["usec_per_op"]):
        print("FAIL: len() on a 10k queue is not cheaper than a push/pop",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

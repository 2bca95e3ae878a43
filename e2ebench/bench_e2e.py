"""End-to-end benchmark of the simulation platform, in absolute units.

Run it from the repository root (no install needed; it puts ``src/`` on
the path itself):

    python3 e2ebench/bench_e2e.py --seed 1            # all workloads -> results/BENCH_e2e.json
    python3 e2ebench/bench_e2e.py --seed 1 --trace    # plus the traced per-layer pass
    python3 e2ebench/bench_e2e.py --workload fleet-fast --seed 3 --trace 0

Run length is ``run_seconds`` in BENCHMARK.json, so it is the same on
every commit; ``--seconds`` is accepted only with that value.  Each
workload runs in :data:`REPEATS` fresh child processes, one after the
other.  A child times its own set-up, from the moment the parent
spawned it to the first timed call, then runs, in closed loop, as many
distinct units of work as fill its share of the run at the reference
host speed.  The last child first runs unit 0 again, outside the
metrics: its output digest must repeat the first child's exactly.

End-to-end metrics, measured with tracing off (medians over units or
children; quartiles and sample counts are printed):

``ms_per_command``  host ms per simulated command window
``homes_per_s``     homes (loadtest cells on guard-multispeaker) per host s
``setup_s``         host s from child spawn to the first timed call
``peak_rss_mb``     the child's peak resident set (its pool workers included)

Host times are taken at the reference host speed (``hostspeed.py``),
which removes a shared machine's speed swings; the raw wall-clock
medians are printed and recorded beside them.

``--trace 1`` runs one untraced child and one traced child instead and
prints per-layer metrics (see ``tracing.py``).  The last line of stdout
is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits non-zero, without that line, if the program
under test is missing, and with ``"correct": false`` if an output check
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("guard-compressed", "guard-sevenday", "guard-multispeaker",
                  "fleet-fast", "fleet-fast-w2", "fleet-full")

# name -> unit; directions and regression bounds live in BENCHMARK.json.
END_TO_END = {"ms_per_command": "ms", "homes_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

REPEATS = 3  # child processes per untraced pass; set-up is their median
SMOKE_SECONDS = 0.05  # one unit per child
UNIT_STRIDE = 1_000  # child c runs units c * UNIT_STRIDE, c * UNIT_STRIDE + 1, ...


def _ensure_paths() -> None:
    """Put ``src/`` and this directory first on ``sys.path``.

    Refuses to run against any ``repro`` other than the one in this
    checkout's ``src/``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program to benchmark under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"e2ebench: imported repro from {repro.__file__}, not {SRC}")


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# One child: set-up, closed-loop units, checks
# ---------------------------------------------------------------------------

def run_child(workload: str, seed: int, budget_s: float, traced: bool = False,
              smoke: bool = False, last: bool = True, child: int = 0,
              repeat_first: bool = False, spawned_at: Optional[float] = None,
              spans_path: Optional[Path] = None) -> dict:
    """Run one child's share of a workload in this process.

    The child runs units ``child * UNIT_STRIDE + k`` for as many ``k``
    as fill ``budget_s`` at the reference host speed (at least one), so
    a seed fixes the work whatever the host's speed.  With
    ``repeat_first`` it first runs unit 0 once more, for the digest
    check only.  Returns a JSON-ready record of every unit.
    """
    start = time.monotonic() if spawned_at is None else spawned_at
    with contextlib.ExitStack() as stack:
        with HostSpeed() as speed:
            _ensure_paths()
            import tracing
            import workloads

            tracer = stack.enter_context(tracing.Tracer()) if traced else None
            work = workloads.WORKLOADS[workload](seed, smoke)
            stack.callback(work.close)
            indices = [child * UNIT_STRIDE + k
                       for k in range(max(1, round(budget_s / work.unit_s)))]
            work.setup(0 if repeat_first else indices[0])
            setup_wall_s = time.monotonic() - start
        setup_s = speed.scale(setup_wall_s)
        setup_wall_s = speed.effective(setup_wall_s)
        root = tracer.root if tracer is not None else tracing.null_root
        units: List = []
        if tracer is not None:
            tracer.fold.keep_raw(indices[0])  # raw spans of the first unit only
        if repeat_first:
            units.append(work.run_unit(0, root))
            units[-1].repeat = True
        for index in indices:
            units.append(work.run_unit(index, root))
            if tracer is not None:
                tracer.fold.stop_raw()
        checks = work.final_checks(units) if last else {}
        trace = None
        if tracer is not None:
            trace = _trace_record(tracer.fold, units, work)
            if spans_path is not None:
                _write_spans(spans_path, tracer.fold.raw or [])
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "units": [{key: getattr(unit, key) for key in (
            "index", "repeat", "wall_s", "scaled_s", "homes", "commands", "failed",
            "digest", "outputs")} for unit in units],
        "checks": checks,
        "trace": trace,
    }


def _trace_record(fold, units, work) -> dict:
    import tracing
    import workloads
    from repro.obs.metrics import merge_snapshots

    ok = [unit for unit in units if not unit.failed]
    return {
        "self_s": dict(fold.self_s),
        "calls": tracing.layer_calls(fold),
        "root_wall": fold.root_wall,
        "events": fold.events,
        "packets": fold.calls.get("Network.send", 0),
        "commands": sum(unit.commands for unit in ok),
        "homes": sum(unit.homes for unit in ok),
        # Reference-speed seconds per traced second, to put layer times
        # on the same footing as the end-to-end metrics.
        "speed_scale": _div(sum(unit.scaled_s for unit in units), fold.root_wall),
        "domain": workloads.domain_counts(merge_snapshots(unit.snapshot for unit in units)),
        "pool": work.pool_stats(),
    }


def _write_spans(path: Path, spans: Sequence[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span_id, parent, layer, label, begin, end, unit in spans:
            handle.write(json.dumps({"id": span_id, "parent": parent, "layer": layer,
                                     "entry": label, "start": begin, "end": end,
                                     "unit": unit}) + "\n")


# ---------------------------------------------------------------------------
# Parent: spawn children, check, summarize
# ---------------------------------------------------------------------------

class ChildFailed(RuntimeError):
    pass


def _spawn(workload: str, seed: int, budget_s: float, traced: bool, smoke: bool,
           last: bool, child: int = 0, repeat_first: bool = False) -> dict:
    spawned_at = time.monotonic()
    command = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
               "--seed", str(seed), "--budget", repr(budget_s),
               "--traced", str(int(traced)), "--last", str(int(last)),
               "--child-index", str(child), "--repeat-first", str(int(repeat_first)),
               "--spawned-at", repr(spawned_at)]
    if smoke:
        command.append("--smoke")
    timeout = 3 * budget_s + 45.0
    # Its own session, so that a timeout also kills any pool workers.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} child timed out after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited with {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload} child printed no result")
    return json.loads(lines[-1])


def _stat(values: Sequence[float], unit: str) -> dict:
    """Median, quartiles and sample count of ``values``."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else [values[0]] * 3)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def _digest_agreement(children: Sequence[dict]) -> bool:
    """Some unit ran twice, and every unit index has one digest."""
    seen: Dict[int, List[str]] = {}
    for child in children:
        for unit in child["units"]:
            if unit["digest"] and not unit["failed"]:
                seen.setdefault(unit["index"], []).append(unit["digest"])
    return (any(len(digests) > 1 for digests in seen.values())
            and all(len(set(digests)) == 1 for digests in seen.values()))


def _counts(children: Sequence[dict]) -> Tuple[int, int]:
    attempted = sum(unit["homes"] for child in children for unit in child["units"])
    failed = sum(unit["failed"] for child in children for unit in child["units"])
    return attempted, failed


def _good_units(child: dict) -> List[dict]:
    """The child's measured units: distinct, not failed, not empty."""
    return [unit for unit in child["units"]
            if not unit["repeat"] and not unit["failed"] and unit["commands"] > 0
            and unit["wall_s"] > 0]


def end_to_end_metrics(children: Sequence[dict], time_key: str = "scaled_s",
                       setup_key: str = "setup_s") -> Dict[str, dict]:
    """Medians over units (times) and children (set-up, memory).

    By default times are at the reference host speed; pass
    ``"wall_s", "setup_wall_s"`` for the raw wall-clock view.
    """
    units = [unit for child in children for unit in _good_units(child)]
    if not units:
        return {}
    return {
        "ms_per_command": _stat([1000.0 * u[time_key] / u["commands"] for u in units], "ms"),
        "homes_per_s": _stat([u["homes"] / u[time_key] for u in units], "1/s"),
        "setup_s": _stat([child[setup_key] for child in children], "s"),
        "peak_rss_mb": _stat([child["peak_rss_mb"] for child in children], "MB"),
    }


def simulated_outputs(children: Sequence[dict]) -> dict:
    """Simulated results of each distinct unit, folded once."""
    units: Dict[int, dict] = {}
    for child in children:
        for unit in child["units"]:
            if not unit["failed"]:
                units.setdefault(unit["index"], unit["outputs"])
    totals: Dict[str, float] = {}
    latencies: List[float] = []
    table = None
    for index in sorted(units):
        for key, value in units[index].items():
            if key == "latencies_s":
                latencies.extend(value)
            elif key == "table":
                table = value
            else:
                totals[key] = totals.get(key, 0) + value
    out: Dict[str, object] = {"units": len(units), "totals": totals}

    def rate(num: str, den: str) -> Optional[float]:
        return totals[num] / totals[den] if totals.get(den) else None

    if "attacks_blocked" in totals:
        out["attack_block_rate"] = rate("attacks_blocked", "attacks")
    if "owner_blocked" in totals:
        out["owner_false_block_rate"] = rate("owner_blocked", "owner_commands")
    if "false_blocks" in totals:
        out["owner_false_block_rate"] = rate("false_blocks", "legit_commands")
    if "released" in totals:
        out["owner_block_rate"] = rate("blocked", "commands")
        out["timeout_rate"] = rate("timeouts", "commands")
        out["overflows"] = totals["overflows"]
    if latencies:
        ordered = sorted(latencies)
        out["decision_p50_s"] = ordered[int(0.50 * (len(ordered) - 1))]
        out["decision_p99_s"] = ordered[int(0.99 * (len(ordered) - 1))]
    if table is not None:
        out["unit0_table"] = table
    return out


# -- per-layer metrics ------------------------------------------------------

def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_table() -> List[Tuple[str, str, str, object]]:
    """``(name, unit, better, fn(trace, overhead_pct))`` for every
    per-layer metric, in BENCHMARK.json order."""
    _ensure_paths()
    from tracing import LAYER_NAMES, ROOT_LAYER

    rows: List[Tuple[str, str, str, object]] = []
    for layer in LAYER_NAMES + (ROOT_LAYER,):
        rows.append((f"{layer}.ms_per_command", "ms", "lower",
                     lambda t, o, L=layer: 1000.0 * t["speed_scale"]
                     * _div(t["self_s"][L], t["commands"])))
        rows.append((f"{layer}.share", "%", "lower",
                     lambda t, o, L=layer: 100.0 * _div(t["self_s"][L], t["root_wall"])))
        if layer != ROOT_LAYER:
            rows.append((f"{layer}.calls_per_command", "calls/cmd", "lower",
                         lambda t, o, L=layer: _div(t["calls"][L], t["commands"])))

    def per_command(key):
        return lambda t, o: _div(t["domain"][key], t["commands"])

    def percent(num, den):
        return lambda t, o: 100.0 * _div(t["domain"][num], t["domain"][den])

    rows += [
        ("sim.events_per_command", "events/cmd", "lower",
         lambda t, o: _div(t["events"], t["commands"])),
        ("sim.us_per_event", "us", "lower",
         lambda t, o: 1e6 * _div(t["self_s"]["sim"], t["events"])),
        ("net.link.packets_per_command", "packets/cmd", "lower",
         lambda t, o: _div(t["packets"], t["commands"])),
        ("net.proxy.records_held_per_command", "records/cmd", "lower",
         per_command("records_held")),
        ("net.proxy.held_bytes_peak", "bytes", "lower",
         lambda t, o: float(t["domain"]["held_bytes_peak"])),
        ("net.proxy.hold_overflows_per_command", "count/cmd", "lower",
         per_command("hold_overflows")),
        ("core.recognition.windows_per_command", "windows/cmd", "lower",
         per_command("windows_opened")),
        ("core.recognition.command_ratio", "%", "higher",
         percent("windows_command", "windows_opened")),
        ("core.decision.queries_per_command", "queries/cmd", "lower", per_command("queries")),
        ("core.decision.queued_per_command", "count/cmd", "lower", per_command("queued")),
        ("core.decision.batched_ratio", "%", "higher",
         lambda t, o: 100.0 * _div(t["domain"]["batched"], t["commands"])),
        ("core.decision.queue_wait_p50_s", "s", "lower",
         lambda t, o: float(t["domain"]["queue_wait_p50_s"])),
        ("home.push.sent_per_command", "pushes/cmd", "lower", per_command("push_sent")),
        ("home.push.loss_ratio", "%", "lower", percent("push_lost", "push_sent")),
        ("home.push.retries_per_command", "count/cmd", "lower", per_command("retries")),
        ("core.floor.traces_per_command", "traces/cmd", "lower",
         per_command("traces_recorded")),
        ("experiments.pool.template_builds", "count", "lower",
         lambda t, o: float(t["pool"]["template_builds"])),
        ("experiments.pool.restores_per_home", "count/home", "lower",
         lambda t, o: _div(t["pool"]["restores"], t["homes"])),
        ("tracing_overhead", "%", "lower", lambda t, o: o),
    ]
    return rows


def per_layer_metrics(untraced: dict, traced: dict) -> Dict[str, dict]:
    trace = traced["trace"]
    plain = _good_units(untraced)
    plain_ms = 1000.0 * _div(sum(u["scaled_s"] for u in plain),
                             sum(u["commands"] for u in plain))
    traced_ms = 1000.0 * trace["speed_scale"] * _div(trace["root_wall"], trace["commands"])
    overhead = 100.0 * (_div(traced_ms, plain_ms) - 1.0)
    return {name: {"value": float(fn(trace, overhead)), "unit": unit}
            for name, unit, _, fn in per_layer_table()}


# -- one workload ----------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Spawn a workload's children and fold them into one result."""
    budget = seconds / REPEATS
    if trace:
        # The traced child runs the same units as the untraced one.
        children = [_spawn(name, seed, budget, False, smoke, last=False),
                    _spawn(name, seed, budget, True, smoke, last=True)]
        checks = {"traced_matches_untraced": _digest_agreement(children)}
    else:
        last = REPEATS - 1
        children = [_spawn(name, seed, budget, False, smoke, last=(i == last), child=i,
                           repeat_first=(i == last))
                    for i in range(REPEATS)]
        checks = {"digests_match": _digest_agreement(children)}
    for child in children:
        checks.update(child["checks"])
    attempted, failed = _counts(children)
    result = {
        "workload": name,
        "seed": seed,
        "children": len(children),
        "budget_s_per_child": budget,
        "attempted": attempted,
        "failed": failed,
        "failed_share": _div(failed, attempted),
        "checks": checks,
        "correct": all(checks.values()),
        "digests": sorted({unit["digest"] for child in children
                           for unit in child["units"] if unit["digest"]}),
    }
    if trace:
        result["metrics"] = per_layer_metrics(children[0], children[1])
        result["layers"] = _layer_rows(children[1]["trace"])
    else:
        result["metrics"] = end_to_end_metrics(children)
        result["wall_clock"] = end_to_end_metrics(children, "wall_s", "setup_wall_s")
        result["simulated"] = simulated_outputs(children)
    if not result["metrics"]:
        result["correct"] = False
    return result


def _layer_rows(trace: dict) -> Dict[str, dict]:
    import tracing

    return {layer: {"self_s": trace["self_s"][layer],
                    "share": _div(trace["self_s"][layer], trace["root_wall"]),
                    "calls": trace["calls"].get(layer, 0)}
            for layer in tracing.LAYER_NAMES + (tracing.ROOT_LAYER,)}


# -- printing ----------------------------------------------------------------

def print_result(result: dict) -> None:
    print(f"{result['workload']}: seed {result['seed']}, {result['children']} children "
          f"x {result['budget_s_per_child']:.2f} s, closed loop in one process")
    for name, stat in result["metrics"].items():
        if "n" in stat:
            print(f"  {name:<16} {stat['value']:>12.4f} {stat['unit']:<4} "
                  f"(q1 {stat['q1']:.4f}, q3 {stat['q3']:.4f}, n={stat['n']})")
    wall = result.get("wall_clock")
    if wall:
        print("  wall clock: " + ", ".join(f"{name} {stat['value']:.4f}"
                                           for name, stat in wall.items()
                                           if name != "peak_rss_mb"))
    print(f"  failed_share     {result['failed']}/{result['attempted']} homes")
    print("  checks: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}"
                                   for k, v in result["checks"].items()))
    simulated = result.get("simulated")
    if simulated:
        shown = {k: v for k, v in simulated.items() if k not in ("unit0_table", "totals")}
        print(f"  simulated: {json.dumps(shown)}")
    layers = result.get("layers")
    if layers:
        metrics = result["metrics"]
        print(f"  {'layer':<24} {'ms/cmd':>9} {'share':>7} {'calls/cmd':>10}")
        for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            if not row["calls"] and not row["self_s"]:
                continue
            calls = metrics.get(f"{layer}.calls_per_command", {}).get("value", 0.0)
            print(f"  {layer:<24} {metrics[layer + '.ms_per_command']['value']:>9.4f} "
                  f"{100 * row['share']:>6.1f}% {calls:>10.2f}")
        named = sum(row["share"] for layer, row in layers.items() if layer != "bench")
        print(f"  named layers cover {100 * named:.1f}% of traced wall "
              f"(sim self time includes callbacks into private methods)")
        print(f"  tracing_overhead {metrics['tracing_overhead']['value']:.1f}%")


def _machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "platform": platform.platform()}


def _final_line(results: Sequence[dict], prefix: bool) -> dict:
    metrics = {}
    for result in results:
        for name, stat in result["metrics"].items():
            key = f"{result['workload']}.{name}" if prefix else name
            metrics[key] = {"value": stat["value"], "unit": stat["unit"]}
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, writing results/BENCH_e2e.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal run_seconds in BENCHMARK.json, which alone "
                             "sets the run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced per-layer pass (with all workloads: in addition "
                             "to the untraced pass)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same checks; numbers are not citable")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default with all workloads: "
                             "results/BENCH_e2e.json, or BENCH_e2e-smoke.json)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--last", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--child-index", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--repeat-first", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        spans = None
        if args.traced:
            suffix = "-smoke" if args.smoke else ""
            spans = RESULTS / f"spans-{args.child}{suffix}.jsonl"
        record = run_child(args.child, args.seed, args.budget, traced=bool(args.traced),
                           smoke=args.smoke, last=bool(args.last), child=args.child_index,
                           repeat_first=bool(args.repeat_first),
                           spawned_at=args.spawned_at, spans_path=spans)
        print(json.dumps(record))
        return 0

    _ensure_paths()
    seconds = json.loads(SPEC_PATH.read_text())["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be run_seconds in BENCHMARK.json ({seconds})")
    if args.smoke:
        seconds = SMOKE_SECONDS
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    passes = [bool(args.trace)] if args.workload else ([False, True] if args.trace else [False])

    results = []
    try:
        for name in names:
            for trace in passes:
                result = run_workload(name, args.seed, seconds, trace, args.smoke)
                print_result(result)
                results.append(result)
    except ChildFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1

    default_out = RESULTS / ("BENCH_e2e-smoke.json" if args.smoke else "BENCH_e2e.json")
    out = args.out or (None if args.workload else default_out)
    if out is not None:
        payload = {"bench": "e2e", "seed": args.seed, "smoke": args.smoke,
                   "seconds": seconds, "repeats": REPEATS, "machine": _machine(),
                   "generated": time.strftime("%Y-%m-%dT%H:%M:%S"), "results": results}
        speed = {r["workload"]: r["metrics"]["homes_per_s"]["value"] for r in results
                 if "homes_per_s" in r["metrics"]}
        if "fleet-fast" in speed and "fleet-fast-w2" in speed:
            # Recorded, not gated: the two-worker fleet against the serial
            # path on the same population, not against one task per home.
            payload["parallel_vs_serial"] = speed["fleet-fast-w2"] / speed["fleet-fast"]
            print(f"parallel_vs_serial {payload['parallel_vs_serial']:.3f} "
                  f"(fleet-fast-w2 homes_per_s / fleet-fast homes_per_s)")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    final = _final_line(results, prefix=len(results) > 1)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

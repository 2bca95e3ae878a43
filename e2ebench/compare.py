"""Gate one BENCH_e2e.json against another with BENCHMARK.json's bounds.

    python3 e2ebench/compare.py BASE.json NEW.json

End-to-end medians are compared only between results of the same mode
(both smoke or both full).  A metric fails when NEW's median is worse
than BASE's by more than the metric's ``bound`` (a share of BASE's
median).  The raw wall-clock medians get the same verdicts, printed but
not gated.  Output invariants are checked on NEW whatever the mode: every
check the run recorded (digests repeat, traced equals untraced, the
serial and two-worker fleet tables match) must hold and no home may
fail.  Layer shares from traced passes are printed beside the gates,
not gated, so that a regression names the layer that moved.

Prints a markdown table and exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RAW_WALL_METRICS = ("ms_per_command", "homes_per_s", "setup_s")


def _gate(workload: str, label: str, metric: dict, b: float, n: float) -> Tuple[str, bool]:
    """A markdown row without its verdict cell, and whether NEW is within
    the metric's bound of BASE."""
    worse = (n - b) / b if metric["better"] == "lower" else (b - n) / b
    row = (f"| {workload} | {label} ({metric['unit']}) | {b:.4g} | {n:.4g} | "
           f"{100 * (n - b) / b:+.1f}% | {100 * metric['bound']:.0f}% |")
    return row, worse <= metric["bound"]


def _passes(payload: dict) -> Dict[Tuple[str, str], dict]:
    return {(result["workload"], "trace" if "layers" in result else "e2e"): result
            for result in payload["results"]}


def compare(base: dict, new: dict, spec: dict) -> Tuple[List[str], int]:
    """Markdown rows and the number of failures."""
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    same_mode = base.get("smoke") == new.get("smoke")
    old = _passes(base)
    rows = ["| workload | metric | base | new | change | bound | verdict |",
            "|---|---|---|---|---|---|---|"]
    failures = 0
    for (workload, kind), result in sorted(_passes(new).items()):
        for check, ok in result["checks"].items():
            failures += not ok
            rows.append(f"| {workload} | {check} | | {ok} | | invariant | "
                        f"{'ok' if ok else 'FAIL'} |")
        failures += result["failed"] > 0
        rows.append(f"| {workload} | failed_share | | {result['failed_share']:.4f} | | "
                    f"invariant | {'ok' if result['failed'] == 0 else 'FAIL'} |")
        before = old.get((workload, kind))
        if before is None:
            continue
        if kind == "e2e" and same_mode:
            for name, metric in bounds.items():
                row, ok = _gate(workload, name, metric, before["metrics"][name]["value"],
                                result["metrics"][name]["value"])
                failures += not ok
                rows.append(row + f" {'ok' if ok else 'FAIL'} |")
            # Raw wall-clock verdicts beside the gated ones, so a regression
            # the host-speed scaling hid still shows.  Not gated: raw wall
            # time on a shared host spreads wider than the bounds.
            for name in RAW_WALL_METRICS:
                metric = bounds[name]
                row, ok = _gate(workload, f"{name}, raw wall", metric,
                                before["wall_clock"][name]["value"],
                                result["wall_clock"][name]["value"])
                rows.append(row + f" info: {'within' if ok else 'OVER'} bound |")
        elif kind == "trace":
            for layer, row in sorted(result["layers"].items(),
                                     key=lambda kv: -kv[1]["share"]):
                share = before["layers"].get(layer, {}).get("share", 0.0)
                if max(share, row["share"]) < 0.005:
                    continue
                rows.append(f"| {workload} | {layer}.share | {100 * share:.1f}% | "
                            f"{100 * row['share']:.1f}% | | | info |")
    if not same_mode:
        rows.append("| | (base and new differ in smoke mode: absolute metrics not gated) "
                    "| | | | | |")
    return rows, failures


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    rows, failures = compare(base, new, json.loads(SPEC_PATH.read_text()))
    print("\n".join(rows))
    print(f"\n{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

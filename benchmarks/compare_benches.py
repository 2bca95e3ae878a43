#!/usr/bin/env python
"""Compare regenerated ``BENCH_*.json`` payloads against committed baselines.

The CI ``bench-regression`` job regenerates every benchmark artifact in
smoke mode and runs this script against the baselines committed under
``benchmarks/results/``.  Two comparison bases, chosen per metric by
whether the two payloads were produced in the same mode:

* **same mode** (both smoke or both full): a throughput/speedup metric
  may not regress by more than ``--tolerance`` (default 30%) relative
  to the baseline.
* **cross mode** (CI's smoke run vs the committed full-run numbers):
  relative comparison is meaningless — smoke timings are deliberately
  too short to be citable — so only each metric's absolute floor (or
  ceiling) is enforced: a speedup must stay a speedup, the loadtest
  ratio must clear its 2x floor, the obs overhead must stay sane.

Boolean invariants (``tables_identical``, ``streams_identical``,
``events_identical``) must be truthy in the candidate regardless of
mode: equivalence is asserted per run, not timed, so smoke runs prove
it just as hard as full runs.

Every ``BENCH_*.json`` in the baseline directory must be listed in
:data:`BENCHES`: a retired bench's payload left behind would otherwise
sit there ungated, so an unlisted baseline fails the check.

A markdown summary table is appended to ``$GITHUB_STEP_SUMMARY`` when
set (and always printed).  Exit 1 on any failed row.

Usage (from the repository root)::

    python benchmarks/compare_benches.py --candidate-dir /tmp/bench-out
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from dataclasses import dataclass, field
from typing import List, Optional

DEFAULT_TOLERANCE = 0.30

# Absolute slack for lower-is-better metrics whose baseline sits near
# zero (a relative band around ~0.0 would reject measurement noise).
ABS_SLACK = 0.05


@dataclass
class Metric:
    """One numeric series of a benchmark payload."""

    path: str  # dotted path into the JSON payload
    floor: Optional[float] = None  # absolute: candidate must be >= (always)
    ceiling: Optional[float] = None  # absolute: candidate must be <= (always)
    higher_better: bool = True  # direction of the relative same-mode check


@dataclass
class Bench:
    """What to check in one ``BENCH_*.json`` file."""

    mode_path: Optional[str]  # JSON key distinguishing smoke runs, if any
    metrics: List[Metric] = field(default_factory=list)
    invariants: List[str] = field(default_factory=list)  # must be truthy


BENCHES = {
    "BENCH_rssi.json": Bench(
        mode_path=None,  # rssi smoke runs just shorten --seconds
        metrics=[
            Metric("speedups.grid_map", floor=1.0),
            Metric("speedups.mean_rssi_cached_vs_reference", floor=1.0),
            Metric("speedups.mean_rssi_many_vs_reference", floor=1.0),
            Metric("speedups.sample_batch_vs_scalar", floor=0.8),
            Metric("speedups.walls_many_vs_scalar", floor=1.0),
            Metric("speedups.trace_vs_scalar", floor=1.0),
        ],
    ),
    "BENCH_obs.json": Bench(
        mode_path="smoke",
        metrics=[
            Metric("overhead_fraction", ceiling=0.5, higher_better=False),
        ],
        invariants=["events_identical"],
    ),
    "BENCH_load.json": Bench(
        mode_path="smoke",
        metrics=[
            Metric("throughput_ratio", floor=2.0),
            Metric("knee_resolved_per_sec", floor=0.0),
        ],
        invariants=["streams_identical"],
    ),
    "BENCH_recognition.json": Bench(
        mode_path="smoke",
        metrics=[
            Metric("signature_drop_points", floor=20.0),
            Metric("retrain_gap_points", ceiling=10.0, higher_better=False),
            Metric("throughput.knn_windows_per_sec", floor=200.0),
            Metric("throughput.mlp_windows_per_sec", floor=200.0),
        ],
        invariants=["weights_identical", "tables_identical"],
    ),
}


def _lookup(payload: dict, path: str):
    value = payload
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


@dataclass
class Row:
    bench: str
    metric: str
    baseline: object
    candidate: object
    basis: str
    ok: bool
    note: str = ""

    def markdown(self) -> str:
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value) if value is not None else "—"

        status = "✅" if self.ok else "❌"
        note = self.note or ""
        return (f"| {self.bench} | `{self.metric}` | {fmt(self.baseline)} | "
                f"{fmt(self.candidate)} | {self.basis} | {status} {note} |")


def compare_bench(
    name: str,
    bench: Bench,
    baseline: dict,
    candidate: dict,
    tolerance: float,
) -> List[Row]:
    rows: List[Row] = []
    same_mode = (
        bench.mode_path is not None
        and baseline.get(bench.mode_path) == candidate.get(bench.mode_path)
    )
    for metric in bench.metrics:
        base = _lookup(baseline, metric.path)
        cand = _lookup(candidate, metric.path)
        if not isinstance(cand, (int, float)):
            rows.append(Row(name, metric.path, base, cand, "presence", False,
                            "missing in candidate"))
            continue
        ok = True
        notes: List[str] = []
        if metric.floor is not None and cand < metric.floor:
            ok = False
            notes.append(f"below floor {metric.floor:g}")
        if metric.ceiling is not None and cand > metric.ceiling:
            ok = False
            notes.append(f"above ceiling {metric.ceiling:g}")
        basis = "floor/ceiling"
        if same_mode and isinstance(base, (int, float)):
            basis = f"±{tolerance:.0%} vs baseline"
            if metric.higher_better:
                if cand < base * (1.0 - tolerance):
                    ok = False
                    notes.append(f"regressed >{tolerance:.0%}")
            else:
                bound = (base * (1.0 + tolerance) if base > 0
                         else base + ABS_SLACK)
                if cand > bound:
                    ok = False
                    notes.append(f"regressed >{tolerance:.0%}")
        rows.append(Row(name, metric.path, base, cand, basis, ok,
                        "; ".join(notes)))
    for path in bench.invariants:
        cand = _lookup(candidate, path)
        rows.append(Row(name, path, _lookup(baseline, path), cand,
                        "invariant", bool(cand),
                        "" if cand else "must be truthy"))
    return rows


def run_compare(
    baseline_dir: pathlib.Path,
    candidate_dir: pathlib.Path,
    tolerance: float,
) -> List[Row]:
    rows: List[Row] = []
    for path in sorted(baseline_dir.glob("BENCH_*.json")):
        if path.name not in BENCHES:
            rows.append(Row(path.name, "(file)", "present", None, "registry",
                            False, "baseline not listed in BENCHES"))
    for name, bench in sorted(BENCHES.items()):
        base_path = baseline_dir / name
        cand_path = candidate_dir / name
        if not base_path.exists():
            # A brand-new bench with no committed baseline yet: nothing
            # to regress against, but the candidate's own floors and
            # invariants still apply.
            baseline = {}
        else:
            baseline = json.loads(base_path.read_text(encoding="utf-8"))
        if not cand_path.exists():
            rows.append(Row(name, "(file)", "present" if baseline else None,
                            None, "presence", False,
                            "candidate payload not generated"))
            continue
        candidate = json.loads(cand_path.read_text(encoding="utf-8"))
        rows.extend(compare_bench(name, bench, baseline, candidate, tolerance))
    return rows


def render_markdown(rows: List[Row], tolerance: float) -> str:
    failed = [row for row in rows if not row.ok]
    lines = [
        "## Benchmark regression check",
        "",
        f"{len(rows) - len(failed)}/{len(rows)} checks passed "
        f"(relative tolerance {tolerance:.0%} on same-mode runs; absolute "
        "floors on cross-mode runs).",
        "",
        "| bench | metric | baseline | candidate | basis | status |",
        "|---|---|---|---|---|---|",
    ]
    lines.extend(row.markdown() for row in rows)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", default="benchmarks/results",
                        help="directory with the committed BENCH_*.json")
    parser.add_argument("--candidate-dir", required=True,
                        help="directory with the freshly generated payloads")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="max relative regression for same-mode runs")
    args = parser.parse_args(argv)

    rows = run_compare(pathlib.Path(args.baseline_dir),
                       pathlib.Path(args.candidate_dir), args.tolerance)
    summary = render_markdown(rows, args.tolerance)
    print(summary)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a", encoding="utf-8") as fh:
            fh.write(summary + "\n")

    failed = [row for row in rows if not row.ok]
    if failed:
        print(f"\nFAIL: {len(failed)} benchmark check(s) regressed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Regenerate every paper table and figure in one run.

Writes the consolidated report to ``reproduction_report.txt``, the same
bytes ``python -m repro report --output`` writes and prints.  Use
``--scale 1.0`` for the paper's full command counts (slower), the
default 0.3 for a quick pass.

Run:  python examples/full_reproduction.py [--scale 0.3] [--seed 3]
"""

from __future__ import annotations

import argparse

from repro.__main__ import main as repro


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3,
                        help="workload scale for the 7-day tables (1.0 = paper)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--output", default="reproduction_report.txt")
    args = parser.parse_args()
    return repro(["report", "--scale", str(args.scale), "--seed", str(args.seed),
                  "--output", args.output])


if __name__ == "__main__":
    raise SystemExit(main())

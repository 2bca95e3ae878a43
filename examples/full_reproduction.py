#!/usr/bin/env python3
"""Regenerate every paper table and figure in one run.

Writes the consolidated report to ``reproduction_report.txt``.  Use
``--scale 1.0`` for the paper's full command counts (slower), the
default 0.3 for a quick pass.

Run:  python examples/full_reproduction.py [--scale 0.3] [--seed 3]
"""

from __future__ import annotations

import argparse
import pathlib

from repro.experiments.report import generate_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3,
                        help="workload scale for the 7-day tables (1.0 = paper)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--output", default="reproduction_report.txt")
    args = parser.parse_args()

    report = generate_report(scale=args.scale, seed=args.seed, progress=print)
    text = report.render()
    output = pathlib.Path(args.output)
    output.write_text(text, encoding="utf-8")
    print()
    print(text)
    print(f"(report written to {output})")


if __name__ == "__main__":
    main()

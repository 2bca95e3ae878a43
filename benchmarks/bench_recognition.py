#!/usr/bin/env python
"""Recognizer throughput benchmark: windows/sec through ``predict_window``.

Trains the knn and mlp recognizers and times ``predict_window`` on
synthesized echo windows (feature extraction included), with an
absolute floor.  The timed gate is on offline ``predict_window``, the
one path the learned recognizers run (``repro
recognition-robustness``); the guard runs only the signature matcher.
The recognizers' accuracy,
determinism and arms-race gates are tier-1 tests
(``tests/test_recognition_learning.py``).

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/bench_recognition.py
    PYTHONPATH=src python benchmarks/bench_recognition.py --smoke

Prints windows/sec per recognizer and exits 1 if either is under
``THROUGHPUT_FLOOR``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.recognizers import synth_windows, train_window_recognizer
from repro.experiments.parallel import derive_seed
from repro.sim.random import RngHub

THROUGHPUT_FLOOR = 200.0  # predict_window calls/sec, knn and mlp


def measure_throughput(kind: str, seed: int, per_class: int,
                       min_seconds: float) -> float:
    """predict_window calls/sec for a trained recognizer."""
    recognizer = train_window_recognizer(kind, "echo", RngHub(seed),
                                         train_per_class=per_class)
    windows = synth_windows(
        "echo", np.random.default_rng(derive_seed(seed, "bench.throughput")), 25)
    calls = 0
    start = time.perf_counter()
    while True:
        for sample in windows:
            recognizer.predict_window(sample.lengths, sample.offsets)
        calls += len(windows)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return calls / elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller training sets: exercises the path, "
                             "numbers not citable")
    parser.add_argument("--seconds", type=float, default=0.2,
                        help="minimum wall time per throughput measurement")
    args = parser.parse_args(argv)

    per_class = 12 if args.smoke else 30
    rates = {kind: measure_throughput(kind, args.seed, per_class, args.seconds)
             for kind in ("knn", "mlp")}
    print(f"recognizer throughput (seed {args.seed}"
          f"{', smoke' if args.smoke else ''}): "
          + ", ".join(f"{kind} {rate:.0f} windows/s"
                      for kind, rate in rates.items())
          + f" (floor {THROUGHPUT_FLOOR:.0f})")

    failures = [kind for kind, rate in rates.items() if rate < THROUGHPUT_FLOOR]
    for kind in failures:
        print(f"FAIL: {kind} {rates[kind]:.0f} windows/s below the "
              f"{THROUGHPUT_FLOOR:.0f}/s floor", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

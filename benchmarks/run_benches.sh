#!/usr/bin/env sh
# Refresh the committed benchmark artifacts.
#
#   benchmarks/run_benches.sh          # kernel benches -> BENCH_rssi.json,
#                                      # BENCH_obs.json, BENCH_load.json,
#                                      # BENCH_recognition.json
#   benchmarks/run_benches.sh --smoke  # same benches at minimal wall time:
#                                      # exercises the whole path (CI's
#                                      # bench job), numbers not citable
#   benchmarks/run_benches.sh --all    # also re-run the full pytest bench
#                                      # suite (regenerates every table and
#                                      # figure artifact under results/)
#
# Run from the repository root.  $BENCH_RESULTS_DIR overrides where the
# JSON payloads land (default benchmarks/results); CI's bench-regression
# job points it at a scratch directory so the committed baselines stay
# untouched for benchmarks/compare_benches.py to compare against.
#
# Every bench asserts, before timing, that the optimized path reproduces
# its reference bit-for-bit (RSSI: batched kernels vs scalar reference;
# obs: tracing off vs on; load: concurrency knobs on vs off on a single
# flow; recognition: same-seed retrains and serial-vs-parallel grid
# tables), so a passing run doubles as an equivalence check.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH=src
export PYTHONPATH

OUT="${BENCH_RESULTS_DIR:-benchmarks/results}"
mkdir -p "$OUT"

if [ "${1:-}" = "--smoke" ]; then
    python benchmarks/bench_rssi_kernel.py --seed 7 --seconds 0.05 \
        --output "$OUT/BENCH_rssi.json"
    python benchmarks/bench_obs_overhead.py --smoke \
        --output "$OUT/BENCH_obs.json"
    python benchmarks/bench_load.py --smoke \
        --output "$OUT/BENCH_load.json"
    python benchmarks/bench_recognition.py --smoke \
        --output "$OUT/BENCH_recognition.json"
    exit 0
fi

python benchmarks/bench_rssi_kernel.py --seed 7 --output "$OUT/BENCH_rssi.json"
python benchmarks/bench_obs_overhead.py --output "$OUT/BENCH_obs.json"
python benchmarks/bench_load.py --output "$OUT/BENCH_load.json"
python benchmarks/bench_recognition.py --output "$OUT/BENCH_recognition.json"

if [ "${1:-}" = "--all" ]; then
    python -m pytest benchmarks/ -q
fi

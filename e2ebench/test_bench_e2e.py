"""Self-test of the end-to-end benchmark harness, at smoke sizes.

    python3 -m pytest e2ebench/test_bench_e2e.py -q

Children are real subprocesses where a digest is compared, because
unit digests are only defined for a fresh process.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_e2e  # noqa: E402

bench_e2e._ensure_paths()

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _spawn(workload, seed=1, traced=False):
    return bench_e2e._spawn(workload, seed, 0.0, traced, smoke=True, last=True)


@pytest.fixture(scope="module")
def traced_pairs():
    """(untraced, traced) smoke children for every workload."""
    return {name: (_spawn(name), _spawn(name, traced=True))
            for name in bench_e2e.WORKLOAD_NAMES}


def test_names_match_benchmark_json():
    assert list(bench_e2e.WORKLOAD_NAMES) == [w["name"] for w in SPEC["workloads"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_e2e.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in bench_e2e.per_layer_table()]
    assert set(workloads.WORKLOADS) == set(bench_e2e.WORKLOAD_NAMES)
    assert set(tracing.EXPECTED_MOVES) == set(tracing.LAYER_NAMES)
    for moves in tracing.EXPECTED_MOVES.values():
        for metric, names in moves:
            assert metric in bench_e2e.END_TO_END
            assert set(names) <= set(bench_e2e.WORKLOAD_NAMES)


def test_same_seed_same_digest_other_seed_differs():
    first, again, other = (_spawn("guard-compressed", seed) for seed in (1, 1, 2))
    digest = first["units"][0]["digest"]
    assert digest and again["units"][0]["digest"] == digest
    assert other["units"][0]["digest"] != digest


def test_traced_digest_equals_untraced(traced_pairs):
    for name, (plain, traced) in traced_pairs.items():
        assert plain["units"][0]["digest"] == traced["units"][0]["digest"], name
        assert bench_e2e._digest_agreement([plain, traced]), name


def test_tracer_puts_every_attribute_back():
    def snapshot():
        owners = {}
        for _, owner, attribute, _ in tracing.resolve_targets():
            value = getattr(owner, attribute) if isinstance(owner, types.ModuleType) \
                else vars(owner)[attribute]
            owners[(id(owner), attribute)] = value
        globals_ = {(name, key): value for name, module in list(sys.modules.items())
                    if name.split(".")[0] == "repro"
                    for key, value in list(vars(module).items()) if callable(value)}
        return owners, globals_

    before = snapshot()
    bench_e2e.run_child("guard-compressed", 1, 0.0, traced=True, smoke=True)
    after = snapshot()
    for part_before, part_after in zip(before, after):
        for key, value in part_before.items():
            assert part_after[key] is value, key
    wrappers = [key for key, value in after[1].items()
                if getattr(getattr(value, "__code__", None), "co_filename", "")
                == tracing.__file__]
    assert wrappers == []


def test_self_time_sums_to_root_wall(traced_pairs):
    for name, (_, traced) in traced_pairs.items():
        trace = traced["trace"]
        total = sum(trace["self_s"].values())
        assert total == pytest.approx(trace["root_wall"], rel=0.02), name


def test_every_layer_records_calls_where_named(traced_pairs):
    for layer, moves in tracing.EXPECTED_MOVES.items():
        for _, names in moves:
            for name in names:
                calls = traced_pairs[name][1]["trace"]["calls"][layer]
                assert calls >= 1, (layer, name)


def test_conservation_failure_is_counted_not_fatal(monkeypatch):
    real = workloads.conservation_breaks
    seen = []

    def first_breaks(snapshot, windows):
        seen.append(windows)
        return ["synthetic break"] if len(seen) == 1 else real(snapshot, windows)

    monkeypatch.setattr(workloads, "conservation_breaks", first_breaks)
    record = bench_e2e.run_child("guard-multispeaker", 1, 0.0, smoke=True)
    unit = record["units"][0]
    assert (unit["homes"], unit["failed"]) == (3, 1)
    assert unit["digest"] and len(seen) == 3
    attempted, failed = bench_e2e._counts([record])
    assert bench_e2e._div(failed, attempted) == pytest.approx(1 / 3)


def test_conservation_laws_hold_on_a_clean_home():
    record = bench_e2e.run_child("guard-compressed", 3, 0.0, smoke=True)
    assert record["units"][0]["failed"] == 0
    assert record["units"][0]["commands"] > 0


def _run(args, cwd):
    return subprocess.run([sys.executable, "e2ebench/bench_e2e.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_contract_line(trace):
    proc = _run(["--workload", "fleet-fast", "--seed", "4", "--seconds",
                 str(SPEC["run_seconds"]), "--trace", trace, "--smoke"], HERE.parent)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run(["--workload", "fleet-fast", "--seed", "1", "--seconds",
                 str(SPEC["run_seconds"]), "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_length_is_fixed_by_benchmark_json():
    proc = _run(["--workload", "fleet-fast", "--seed", "1", "--seconds",
                 str(SPEC["run_seconds"] + 1), "--trace", "0", "--smoke"], HERE.parent)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_repeat_check_needs_a_unit_run_twice():
    def child(*indices):
        return {"units": [{"index": i, "digest": f"d{i}", "failed": 0} for i in indices]}

    assert not bench_e2e._digest_agreement([child(0, 1), child(1000, 1001)])
    assert bench_e2e._digest_agreement([child(0, 1), child(0, 1000)])
    other = child(0)
    other["units"][0]["digest"] = "changed"
    assert not bench_e2e._digest_agreement([child(0, 1), other])


def test_pool_workers_report_host_speed():
    def work():
        with multiprocessing.get_context("fork").Pool(2) as pool:
            pool.map(_busy, [0.3, 0.3])

    with hostspeed.HostSpeed(workers=2) as speed:
        work()
    loops, samples, _ = speed._worker_totals()
    assert samples >= 2 and loops > 0
    slots = [speed._shared[3 * i + 1] for i in range(hostspeed.MAX_WORKER_SLOTS)]
    assert sum(1 for count in slots if count) == 2  # one slot per worker
    assert speed.scale(1.0) > 0


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(100))

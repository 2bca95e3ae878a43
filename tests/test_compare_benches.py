"""The benchmark regression gate (``benchmarks/compare_benches.py``).

Covers the rules that decide pass/fail: an unlisted baseline payload, a
missing candidate payload, and same-mode vs cross-mode comparison.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _load_compare():
    spec = importlib.util.spec_from_file_location(
        "compare_benches", BENCHMARKS_DIR / "compare_benches.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


compare = _load_compare()


@pytest.fixture
def one_bench(monkeypatch):
    """Gate a single made-up bench so each test controls every file."""
    monkeypatch.setattr(compare, "BENCHES", {
        "BENCH_demo.json": compare.Bench(
            mode_path="smoke",
            metrics=[compare.Metric("speedup", floor=1.0)],
            invariants=["streams_identical"],
        ),
    })


def _write(directory: pathlib.Path, name: str, payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload), encoding="utf-8")


def _run(tmp_path):
    return compare.run_compare(tmp_path / "base", tmp_path / "cand",
                               compare.DEFAULT_TOLERANCE)


def _failed(rows):
    return [(row.bench, row.metric, row.note) for row in rows if not row.ok]


GOOD = {"smoke": True, "speedup": 4.0, "streams_identical": True}


def test_listed_payloads_pass(tmp_path, one_bench):
    _write(tmp_path / "base", "BENCH_demo.json", GOOD)
    _write(tmp_path / "cand", "BENCH_demo.json", GOOD)
    assert _failed(_run(tmp_path)) == []
    assert compare.main(["--baseline-dir", str(tmp_path / "base"),
                         "--candidate-dir", str(tmp_path / "cand")]) == 0


def test_unlisted_baseline_payload_fails(tmp_path, one_bench):
    _write(tmp_path / "base", "BENCH_demo.json", GOOD)
    _write(tmp_path / "base", "BENCH_retired.json", {"speedup": 9.0})
    _write(tmp_path / "cand", "BENCH_demo.json", GOOD)
    assert _failed(_run(tmp_path)) == [
        ("BENCH_retired.json", "(file)", "baseline not listed in BENCHES"),
    ]
    assert compare.main(["--baseline-dir", str(tmp_path / "base"),
                         "--candidate-dir", str(tmp_path / "cand")]) == 1


def test_missing_candidate_fails(tmp_path, one_bench):
    _write(tmp_path / "base", "BENCH_demo.json", GOOD)
    (tmp_path / "cand").mkdir()
    assert _failed(_run(tmp_path)) == [
        ("BENCH_demo.json", "(file)", "candidate payload not generated"),
    ]


def test_same_mode_regression_fails(tmp_path, one_bench):
    # 2.0 clears the absolute floor but is 50 % below a same-mode baseline.
    _write(tmp_path / "base", "BENCH_demo.json", GOOD)
    _write(tmp_path / "cand", "BENCH_demo.json", dict(GOOD, speedup=2.0))
    failed = _failed(_run(tmp_path))
    assert len(failed) == 1
    assert failed[0][:2] == ("BENCH_demo.json", "speedup")
    assert "regressed" in failed[0][2]


def test_cross_mode_checks_only_the_floor(tmp_path, one_bench):
    _write(tmp_path / "base", "BENCH_demo.json", dict(GOOD, smoke=False))
    _write(tmp_path / "cand", "BENCH_demo.json", dict(GOOD, speedup=2.0))
    assert _failed(_run(tmp_path)) == []
    _write(tmp_path / "cand", "BENCH_demo.json", dict(GOOD, speedup=0.5))
    assert [row[:2] for row in _failed(_run(tmp_path))] == [
        ("BENCH_demo.json", "speedup"),
    ]


"""Smoke tests: the runnable examples must stay runnable.

Each example is executed in-process via runpy with argv pinned; the
slowest (full_reproduction) is exercised through its report module in
other tests instead.
"""

from __future__ import annotations

import pathlib
import runpy
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, capsys) -> str:
    argv = sys.argv
    sys.argv = [name]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "guard verdict: legitimate" in out
        assert "-> blocked" in out

    def test_threshold_calibration(self, capsys):
        out = run_example("threshold_calibration.py", capsys)
        assert "threshold = min" in out
        assert "[55, 56, 59, 60, 61, 62]" in out

    def test_multi_user_home(self, capsys):
        out = run_example("multi_user_home.py", capsys)
        assert "verdict legitimate" in out
        assert "registration refused" in out

"""Smoke benchmark for the parallel experiment engine.

Runs the CLI equivalent of ``python -m repro report --scale 0.1
--workers 2`` end to end: every section regenerates on a
two-worker process pool, exercising task pickling, result transport,
and the ordered reassembly of the report.
"""

from __future__ import annotations


def test_parallel_report_smoke(publish, capsys):
    from repro.__main__ import main

    assert main(["report", "--scale", "0.1", "--workers", "2",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "VoiceGuard reproduction report" in out
    assert "Table II" in out and "hold endurance" in out
    publish("parallel_report_smoke", out)

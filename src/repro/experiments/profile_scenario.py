"""``repro profile`` — cProfile a full scenario run.

Build a scenario, run the standard workload under :mod:`cProfile`, and
print the hottest functions.  ``--seven-day`` stretches the idle gaps
to the paper's real timeline (:data:`repro.experiments.workload.SEVEN_DAY_GAP`),
which is where timer churn and idle polling dominate.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Dict, Tuple

from repro.experiments.scenarios import build_scenario
from repro.experiments.workload import SEVEN_DAY_GAP, SevenDayWorkload

SORT_KEYS = ("cumulative", "tottime", "calls")


def run_profile(
    testbed_name: str = "house",
    speaker_kind: str = "echo",
    seed: int = 11,
    counts: Tuple[int, int] = (10, 7),
    seven_day: bool = False,
    top: int = 30,
    sort: str = "cumulative",
) -> Dict:
    """Profile one workload run; returns stats text plus run facts.

    Only the workload phase is profiled; scenario construction is
    excluded.
    """
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")

    legit, malicious = counts
    gap = SEVEN_DAY_GAP if seven_day else None
    scenario = build_scenario(testbed_name, speaker_kind, deployment=0,
                              seed=seed, owner_count=2, tracing=False)
    workload = SevenDayWorkload(scenario, episode_gap=gap)
    profiler = cProfile.Profile()
    profiler.enable()
    workload.run(legit, malicious)
    scenario.speaker.settle_all()
    profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort)
    stats.print_stats(top)
    total_calls = stats.total_calls
    total_time = stats.total_tt
    return {
        "testbed": testbed_name,
        "speaker": speaker_kind,
        "seed": seed,
        "legit_count": legit,
        "malicious_count": malicious,
        "seven_day": seven_day,
        "sim_seconds": scenario.sim.now,
        "command_events": len(scenario.guard.command_events()),
        "total_calls": total_calls,
        "total_time_s": total_time,
        "stats_text": buffer.getvalue(),
        "stats": stats,
    }


def render_profile(result: Dict) -> str:
    """Header plus the pstats table."""
    days = result["sim_seconds"] / 86400.0
    lines = [
        f"Profile — {result['testbed']}/{result['speaker']}, "
        f"{result['legit_count']}+{result['malicious_count']} commands, "
        f"seed {result['seed']}"
        + (", seven-day timeline" if result["seven_day"] else ""),
        f"  simulated {result['sim_seconds']:.1f} s ({days:.2f} days), "
        f"{result['command_events']} command events, "
        f"{result['total_calls']:,} calls in {result['total_time_s']:.3f} s",
        "",
        result["stats_text"].rstrip(),
    ]
    return "\n".join(lines)

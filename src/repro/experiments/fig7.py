"""Figure 7: RSSI query processing time.

The paper measures the whole guard workflow (invocation, packet
holding, RSSI query) over 100 invocations per speaker: Echo Dot mean
1.622 s with 78 % under 2 s and two runs slightly above 3 s; Google
Home Mini mean 1.892 s.  The connection is never terminated by the
delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.reporting import render_histogram
from repro.core.decision import Verdict
from repro.experiments.scenarios import build_scenario
from repro.sim.random import uniform

PAPER_ECHO_MEAN = 1.622
PAPER_GOOGLE_MEAN = 1.892
PAPER_UNDER_2S = 0.78


@dataclass
class Fig7Result:
    speaker_kind: str
    delays: List[float] = field(default_factory=list)
    sessions_broken: int = 0

    @property
    def mean(self) -> float:
        return float(np.mean(self.delays)) if self.delays else float("nan")

    @property
    def fraction_under_2s(self) -> float:
        if not self.delays:
            return float("nan")
        return sum(1 for d in self.delays if d < 2.0) / len(self.delays)

    @property
    def count_over_3s(self) -> int:
        return sum(1 for d in self.delays if d > 3.0)

    def render(self) -> str:
        """Render as paper-style text."""
        histogram = render_histogram(
            f"Figure 7 ({self.speaker_kind}): RSSI verification time over "
            f"{len(self.delays)} invocations",
            self.delays,
            bins=[0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
        )
        paper_mean = PAPER_ECHO_MEAN if self.speaker_kind == "echo" else PAPER_GOOGLE_MEAN
        return histogram + (
            f"\nmean {self.mean:.3f}s (paper {paper_mean:.3f}s) | "
            f"under 2s: {self.fraction_under_2s:.0%} | over 3s: {self.count_over_3s} | "
            f"sessions broken by holding: {self.sessions_broken}"
        )


def run_fig7(speaker_kind: str = "echo", invocations: int = 100, seed: int = 4) -> Fig7Result:
    """Measure the guard-workflow delay over ``invocations`` commands."""
    scenario = build_scenario(
        "house", speaker_kind, deployment=0, seed=seed,
        owner_count=1, with_floor_tracking=False,
    )
    env = scenario.env
    scenario.owners[0].teleport(env.testbed.standing_point(5))
    rng = env.rng.stream("fig7.workload")
    for _ in range(invocations):
        duration = scenario.speak_command(rng)
        env.sim.run_for(duration + 15.0 + uniform(rng, 0.0, 3.0))
    env.sim.run_for(20.0)

    delays = [
        event.decision_latency
        for event in scenario.guard.log.commands()
        if event.verdict in (Verdict.LEGITIMATE, Verdict.MALICIOUS)
        and event.decision_latency is not None
    ]
    broken = 0
    if scenario.avs_cloud is not None:
        broken = len(scenario.avs_cloud.stats.tls_violations)
    return Fig7Result(
        speaker_kind=speaker_kind,
        delays=delays,
        sessions_broken=broken,
    )

"""Table I: traffic pattern recognition accuracy.

The paper activates the Echo Dot 134 times with randomly generated
voice commands; every spike window the recognizer opens is scored
against ground truth (command-phase spikes are positive, response-phase
and other spikes negative).  Reported: accuracy 99.29 %, precision
100 %, recall 98.51 % (132/134 commands recognized; no response spike
mistaken for a command).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.metrics import ConfusionMatrix
from repro.core.events import CommandEvent, TrafficClass
from repro.experiments.scenarios import build_scenario
from repro.sim.random import uniform
from repro.speakers.base import InteractionRecord

PAPER_INVOCATIONS = 134
PAPER_ACCURACY = 0.9929
PAPER_PRECISION = 1.0
PAPER_RECALL = 0.9851

# The chance a command spike carries neither marker nor fixed pattern;
# the paper's random-command experiment measured about 1.5 % (2 of 134).
ANOMALOUS_RATE = 0.015


@dataclass
class Table1Result:
    """Scored recognition windows."""

    matrix: ConfusionMatrix
    windows_scored: int
    missed_variants: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Render as paper-style text."""
        header = (
            f"Table I reproduction: {PAPER_INVOCATIONS} Echo Dot invocations, "
            f"{self.windows_scored} recognizer triggers\n"
        )
        return header + self.matrix.render()


def _window_is_command_truth(event: CommandEvent, records: List[InteractionRecord]) -> bool:
    """Ground truth: did this window open during a command phase?"""
    for record in records:
        if record.started_at - 0.2 <= event.opened_at <= record.speech_ends_at + 0.5:
            return True
    return False


def run_table1(seed: int = 1) -> Table1Result:
    """Reproduce Table I: the paper's 134 invocations, scored."""
    scenario = build_scenario(
        "house",
        "echo",
        deployment=0,
        seed=seed,
        owner_count=1,
        anomalous_rate=ANOMALOUS_RATE,
        with_floor_tracking=False,
    )
    env = scenario.env
    # The owner stays near the speaker so every command is released and
    # generates its response spikes (recognition is what is under test).
    scenario.owners[0].teleport(env.testbed.standing_point(5))
    workload_start = env.sim.now
    rng = env.rng.stream("table1.workload")

    for _ in range(PAPER_INVOCATIONS):
        duration = scenario.speak_command(rng)
        env.sim.run_for(duration + 16.0 + uniform(rng, 0.0, 4.0))
    env.sim.run_for(30.0)

    records = scenario.speaker.settle_all()
    matrix = ConfusionMatrix()
    missed: List[str] = []
    scored = 0
    for event in scenario.guard.log.events:
        if event.opened_at < workload_start:
            continue
        scored += 1
        truth = _window_is_command_truth(event, records)
        predicted = event.classification is TrafficClass.COMMAND
        matrix.record(actual_positive=truth, predicted_positive=predicted)
        if truth and not predicted:
            nearest = min(records, key=lambda r: abs(r.started_at - event.opened_at))
            missed.append(str(nearest.meta.get("traffic_variant")))
    return Table1Result(
        matrix=matrix,
        windows_scored=scored,
        missed_variants=missed,
    )

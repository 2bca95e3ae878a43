"""Scoring for the RSSI-method experiments (Tables II-IV).

Positive class = malicious command (the paper's convention); the guard
"predicts positive" by blocking.  Ground truth comes from the
speakers' interaction registry: an attack that *executed* at the cloud
is a false negative, a legitimate command that never executed is a
false positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.metrics import ConfusionMatrix, ResilienceSummary, summarize_resilience
from repro.analysis.reporting import fmt_percent
from repro.errors import WorkloadError
from repro.experiments.scenarios import Scenario, build_scenario
from repro.experiments.workload import SevenDayWorkload
from repro.faults.plan import FaultPlan
from repro.speakers.base import InteractionOutcome, InteractionRecord


def check_scale(scale: float) -> None:
    """Reject a workload ``scale`` that is not a finite positive number;
    the command counts it shrinks would otherwise clamp silently."""
    if not 0.0 < scale < float("inf"):
        raise WorkloadError(f"scale must be a finite number above 0, got {scale!r}")


@dataclass
class RssiExperimentResult:
    """One table cell: a (testbed, speaker, location) run."""

    scenario_name: str
    matrix: ConfusionMatrix
    records: List[InteractionRecord] = field(default_factory=list)
    resilience: ResilienceSummary = field(default_factory=ResilienceSummary)
    decision_latencies: List[float] = field(default_factory=list)
    faults_injected: int = 0

    @property
    def legit_correct(self) -> int:
        return self.matrix.true_negative

    @property
    def legit_total(self) -> int:
        return self.matrix.actual_negative

    @property
    def malicious_correct(self) -> int:
        return self.matrix.true_positive

    @property
    def malicious_total(self) -> int:
        return self.matrix.actual_positive

    def row(self) -> Dict[str, object]:
        """A row in the paper's table format.

        Metrics render as percentages; an undefined metric (NaN, e.g.
        precision of a cell with zero positive predictions) renders as
        an em dash rather than ``nan%``.
        """
        return {
            "case": self.scenario_name,
            "legitimate (N)": f"{self.legit_correct} / {self.legit_total}",
            "malicious (P)": f"{self.malicious_correct} / {self.malicious_total}",
            "accuracy": fmt_percent(self.matrix.accuracy),
            "precision": fmt_percent(self.matrix.precision),
            "recall": fmt_percent(self.matrix.recall),
        }

    def correct_flags(self) -> List[bool]:
        """Per-command correctness (the bootstrap's unit of resampling)."""
        flags = []
        for record in self.records:
            blocked = record.outcome is not InteractionOutcome.EXECUTED
            flags.append(blocked == record.is_attack)
        return flags

    def accuracy_interval(self, confidence: float = 0.95, seed: int = 0):
        """95 % bootstrap interval on this cell's accuracy.

        The resampling is explicitly seeded so repeated report runs
        print identical confidence intervals.
        """
        from repro.analysis.stats import accuracy_interval

        return accuracy_interval(self.correct_flags(), confidence=confidence,
                                 seed=seed)


def score_interactions(records: List[InteractionRecord]) -> ConfusionMatrix:
    """Fold settled interaction records into a confusion matrix."""
    matrix = ConfusionMatrix()
    for record in records:
        blocked = record.outcome is not InteractionOutcome.EXECUTED
        matrix.record(actual_positive=record.is_attack, predicted_positive=blocked)
    return matrix


def run_cell(scenario: Scenario, legit_count: int,
             malicious_count: int) -> RssiExperimentResult:
    """Run the seven-day workload (§V-B3) on a built home, settle every
    interaction and score it: the one Tables II-IV cell."""
    SevenDayWorkload(scenario).run(legit_count, malicious_count)
    # Score only workload-issued commands (boot-time noise has no
    # interaction records, but guard training commands would).
    records = scenario.speaker.settle_all()
    guard = scenario.guard
    events = guard.command_events()
    faults = scenario.env.faults
    return RssiExperimentResult(
        scenario_name=scenario.name,
        matrix=score_interactions(records),
        records=records,
        resilience=summarize_resilience(events, guard.log.resilience_counts()),
        decision_latencies=[
            event.decision_latency for event in events
            if getattr(event, "decision_latency", None) is not None
        ],
        faults_injected=faults.total_injected if faults is not None else 0,
    )


def run_rssi_experiment(
    testbed_name: str,
    speaker_kind: str,
    deployment: int,
    seed: int = 0,
    legit_count: int = 90,
    malicious_count: int = 65,
    config=None,
    with_floor_tracking: Optional[bool] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> RssiExperimentResult:
    """Build one Tables II-IV home and run it as a :func:`run_cell`.

    The home has the paper's owners: two phone carriers in the
    smart-home testbeds, one watch wearer in the office.
    """
    scenario = build_scenario(
        testbed_name,
        speaker_kind,
        deployment=deployment,
        seed=seed,
        owner_count=1 if testbed_name == "office" else 2,
        config=config,
        with_floor_tracking=with_floor_tracking,
        fault_plan=fault_plan,
    )
    return run_cell(scenario, legit_count, malicious_count)

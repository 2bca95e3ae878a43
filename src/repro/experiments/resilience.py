"""Accuracy and availability under injected faults (``repro resilience``).

The paper evaluates VoiceGuard on a healthy chain: every push arrives,
every scan completes, every report lands.  This experiment asks what
the "practical" claim is worth when they don't — the home-network
conditions of the BarrierBypass / Alexa-case-study threat models, where
pushes drop and phones go unreachable.

The sweep runs the Tables II-IV workload under a grid of *fault rates*
(push loss, with proportional report loss, scan failures and sensor
dropout riding along) crossed with *retry policies* (single attempt,
exponential-backoff retries, retries plus the degraded proximity
cache), in each of the paper's three testbeds.  Every cell reports the
blocked-attack rate, the false-block rate, decision availability, and
p50/p95 decision latency.  Cells are independent seeded runs, so the
sweep fans out over the parallel engine and reproduces the same table
at the same seed, run after run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import ConfusionMatrix, ResilienceSummary
from repro.analysis.reporting import fmt_percent, render_table
from repro.core.config import VoiceGuardConfig
from repro.errors import WorkloadError
from repro.experiments.parallel import ExperimentEngine, ExperimentTask, derive_seed
from repro.experiments.runner import check_scale, run_rssi_experiment
from repro.faults.plan import FaultPlan, OfflineWindow

TESTBEDS = ("house", "apartment", "office")

# Swept push-loss rates; the secondary channels scale off the same knob
# so one axis degrades the whole chain coherently.
FAULT_RATES = (0.0, 0.1, 0.3)

# name -> (push_retries, proximity_cache_ttl seconds).  The cache TTL
# must cover at least one inter-episode gap (~1-2 min) to ever matter;
# 180 s keeps it short enough that "stale proximity" still means
# "minutes ago", not "this morning".
POLICIES: Dict[str, Tuple[int, float]] = {
    "single": (0, 0.0),
    "retry2": (2, 0.0),
    "retry2+cache": (2, 180.0),
}

# Devices per testbed (matches the scenario builders: two phone owners
# in the homes, one watch wearer in the office).
_TESTBED_DEVICES = {
    "house": ("phone1", "phone2"),
    "apartment": ("phone1", "phone2"),
    "office": ("watch1",),
}


def build_fault_plan(testbed: str, push_loss: float, seed: int) -> Optional[FaultPlan]:
    """The per-cell fault plan for one swept push-loss rate.

    ``push_loss == 0`` returns ``None`` — the genuinely fault-free
    baseline, taking the exact pre-fault code path.  Positive rates
    degrade every channel proportionally and schedule one offline
    window per device (staggered, so multi-device homes keep partial
    coverage while the office's lone watch goes fully dark).
    """
    if push_loss <= 0.0:
        return None
    devices = _TESTBED_DEVICES[testbed]
    # The scaled workload runs a few thousand simulated seconds; windows
    # sit well inside even the smallest run.
    windows = tuple(
        OfflineWindow(device=name, start=600.0 + 500.0 * index,
                      end=900.0 + 500.0 * index)
        for index, name in enumerate(devices)
    )
    return FaultPlan(
        seed=seed,
        push_loss=push_loss,
        push_extra_delay=0.4 * push_loss,
        report_loss=0.5 * push_loss,
        scan_failure=0.25 * push_loss,
        sensor_dropout=0.5 * push_loss,
        trace_dropout=0.25 * push_loss,
        offline_windows=windows,
    )


@dataclass
class ResilienceCell:
    """One (testbed, fault rate, policy) run, scored."""

    testbed: str
    push_loss: float
    policy: str
    matrix: ConfusionMatrix
    summary: ResilienceSummary
    faults_injected: int

    def row(self) -> List[object]:
        m, s = self.matrix, self.summary
        return [
            self.testbed,
            f"{self.push_loss:.0%}",
            self.policy,
            fmt_percent(m.recall),
            fmt_percent(m.false_positive / m.actual_negative
                        if m.actual_negative else float("nan")),
            fmt_percent(s.availability),
            f"{s.latency_p50:.2f}s" if s.latency_p50 == s.latency_p50 else "—",
            f"{s.latency_p95:.2f}s" if s.latency_p95 == s.latency_p95 else "—",
            s.timeouts,
            s.retries,
            s.degraded_grants,
        ]


def run_resilience_cell(
    testbed: str,
    push_loss: float,
    policy: str,
    seed: int = 0,
    legit_count: int = 24,
    malicious_count: int = 18,
    speaker_kind: str = "echo",
) -> ResilienceCell:
    """Run one cell of the resilience sweep end to end."""
    if policy not in POLICIES:
        raise WorkloadError(f"unknown retry policy {policy!r}")
    push_retries, cache_ttl = POLICIES[policy]
    config = VoiceGuardConfig(
        push_retries=push_retries,
        retry_base=1.2,
        retry_cap=4.0,
        proximity_cache_ttl=cache_ttl,
    )
    # The plan seed deliberately excludes the policy: every policy in a
    # column faces the same fault realization, so the comparison is
    # apples-to-apples.
    plan = build_fault_plan(
        testbed, push_loss, seed=derive_seed(seed, "faults", testbed, push_loss)
    )
    cell = run_rssi_experiment(
        testbed, speaker_kind, 0, seed=seed, legit_count=legit_count,
        malicious_count=malicious_count, config=config, fault_plan=plan,
    )
    return ResilienceCell(testbed, push_loss, policy, cell.matrix,
                          cell.resilience, cell.faults_injected)


@dataclass
class ResilienceResult:
    """The full sweep, in submission order."""

    cells: List[ResilienceCell]
    seed: int

    def render(self) -> str:
        table = render_table(
            "Resilience sweep: fault rate x retry policy (RSSI method, loc1)",
            ["testbed", "push loss", "policy", "blocked attacks", "false blocks",
             "availability", "p50", "p95", "timeouts", "retries", "degraded"],
            [cell.row() for cell in self.cells],
        )
        injected = sum(cell.faults_injected for cell in self.cells)
        notes = [
            table,
            f"seed {self.seed}; {injected} faults injected across "
            f"{len(self.cells)} cells",
            "availability = decisions resolved with live or cached evidence "
            "(not a bare timeout); degraded = grants from the proximity cache.",
        ]
        return "\n".join(notes)


def run_resilience(
    seed: int = 0,
    scale: float = 0.25,
    testbed: str = "all",
    workers: int = 1,
) -> ResilienceResult:
    """Run the full sweep through the parallel engine.

    ``testbed`` is one of :data:`TESTBEDS`, or ``"all"`` for each in
    turn.  ``scale`` shrinks the paper-sized command counts per cell,
    exactly as the table experiments do.  Cells are pure functions of
    their arguments, so the sweep parallelizes like every other
    artifact.
    """
    check_scale(scale)
    if testbed != "all" and testbed not in TESTBEDS:
        raise WorkloadError(f"unknown testbed {testbed!r}")
    legit_count = max(6, int(round(90 * scale)))
    malicious_count = max(5, int(round(65 * scale)))
    tasks = [
        ExperimentTask(
            fn=run_resilience_cell,
            args=(name, rate, policy),
            kwargs=dict(
                seed=derive_seed(seed, "resilience", name),
                legit_count=legit_count,
                malicious_count=malicious_count,
            ),
            label=f"resilience/{name}/loss{int(round(rate * 100))}/{policy}",
        )
        for name in (TESTBEDS if testbed == "all" else (testbed,))
        for rate in FAULT_RATES
        for policy in POLICIES
    ]
    engine = ExperimentEngine(workers=workers)
    cells = engine.run(tasks)
    return ResilienceResult(cells=list(cells), seed=seed)

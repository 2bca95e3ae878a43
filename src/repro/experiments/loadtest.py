"""Bursty multi-speaker load test (``repro loadtest``).

The paper evaluates one speaker and one command at a time; a real home
has several speakers in earshot of the same utterance, and every one of
them uploads the command simultaneously — N command windows in flight
through one guard.  This experiment drives that regime: bursts of
owner commands arrive at a configurable offered rate in homes with 1,
2 or 4 Echo Dots, and every cell reports the guard-side throughput
(resolved commands/sec) against the hold-time tail (p50/p99), plus the
coordinator's queue/batching counters — the raw data behind the
commands/sec-vs-latency knee that :func:`saturation_knee` locates and
the rendered table reports.

Three guard configurations bound the space:

* ``coordinated`` — the PR's concurrency machinery on: two query
  slots, batching (one phone report settles every speaker's copy of
  the utterance), a generous held-byte budget.
* ``strict`` — one slot, no batching: every window burns its own
  query, so concurrent windows queue and the hold tail stretches.
  This is the past-the-knee reference curve.
* ``degraded`` — coordinated, but with the fault injector dropping
  most pushes and a deliberately tiny held-byte budget: decisions burn
  their timeout, holds pile up, and the budget's overflow policy
  starts shedding load (it discards the flow's oldest pending window).

Cells are pure functions of their arguments and fan out over the
parallel engine, so the rendered table is identical at any worker
count — the determinism the CI load-smoke job asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.reporting import render_table
from repro.core.config import VoiceGuardConfig
from repro.core.handler import MAX_HOLD
from repro.errors import WorkloadError
from repro.experiments.parallel import ExperimentEngine, ExperimentTask, derive_seed
from repro.experiments.scenarios import add_echo_speaker, build_scenario
from repro.faults.plan import FaultPlan
from repro.obs.metrics import histogram_quantile

TESTBED = "apartment"

# Offered-load levels: mean idle seconds between command bursts.  The
# realized offered rate is reported per cell (speech time and window
# separation put a physical ceiling on how fast one person can talk).
RATE_LEVELS: Dict[str, float] = {"low": 16.0, "med": 8.0, "high": 2.0}

# Guard configurations, see module docstring.
MODES = ("coordinated", "strict", "degraded")

# (speaker counts, rate levels, utterances per cell): the full grid,
# and the corners the CI load-smoke job runs.
GRID = ((1, 2, 4), ("low", "med", "high"), 16)
SMOKE_GRID = ((1, 4), ("high",), 6)

# Intra-burst spacing beyond the utterance itself: enough post-command
# silence that the recognizer closes one window before the next spike
# (IDLE_GAP plus classification slack), so bursts stress the decision
# layer, not the spike detector.
BURST_SPACING = 3.0
# Commands per burst are uniform on 1..BURST_MAX.
BURST_MAX = 3

# The degraded mode's fault plan: most pushes lost, so queries burn
# their full timeout while held bytes accumulate against a tiny budget.
DEGRADED_PUSH_LOSS = 0.75
DEGRADED_BUDGET = 4_096

# Seconds of hold p99 a coordinated cell may reach and still be before
# the saturation knee.
KNEE_P99_BOUND = 10.0


def _cell_config(mode: str) -> VoiceGuardConfig:
    if mode == "coordinated":
        return VoiceGuardConfig(
            max_concurrent_queries=2, decision_batching=True,
            held_byte_budget=65_536,
        )
    if mode == "strict":
        return VoiceGuardConfig(
            max_concurrent_queries=1, decision_batching=False,
            held_byte_budget=65_536,
        )
    if mode == "degraded":
        return VoiceGuardConfig(
            max_concurrent_queries=2, decision_batching=True,
            held_byte_budget=DEGRADED_BUDGET,
        )
    raise WorkloadError(f"unknown loadtest mode {mode!r}")


@dataclass
class LoadCell:
    """One (speakers, rate, mode) run, measured."""

    speakers: int
    rate: str
    mode: str
    offered: int  # utterances spoken
    duration: float  # sim-seconds from first burst to full drain
    commands: int  # command windows the guard saw
    released: int
    blocked: int
    timeouts: int
    batched: int
    queued: int
    expired: int
    overflows: int
    failsafes: int
    queue_peak: float
    inflight_peak: float
    hold_p50: float
    hold_p99: float
    metrics: dict = field(repr=False, default_factory=dict)

    @property
    def resolved(self) -> int:
        return self.released + self.blocked

    @property
    def offered_rate(self) -> float:
        return self.offered / self.duration if self.duration else 0.0

    @property
    def throughput(self) -> float:
        """Resolved command windows per sim-second."""
        return self.resolved / self.duration if self.duration else 0.0

    def row(self) -> List[object]:
        def sec(v: float) -> str:
            return f"{v:.2f}s" if v == v else "—"

        return [
            self.speakers, self.mode, self.rate,
            f"{self.offered_rate:.3f}/s",
            self.commands,
            f"{self.throughput:.3f}/s",
            self.released, self.blocked, self.timeouts,
            self.batched, self.queued, self.overflows,
            int(self.queue_peak),
            sec(self.hold_p50), sec(self.hold_p99),
        ]


def run_loadtest_cell(
    speakers: int,
    rate: str,
    mode: str = "coordinated",
    seed: int = 0,
    utterances: int = 16,
) -> LoadCell:
    """Run one load cell: bursty commands through a multi-speaker home."""
    if rate not in RATE_LEVELS:
        raise WorkloadError(f"unknown rate level {rate!r}")
    if speakers < 1:
        raise WorkloadError(f"need at least one speaker, got {speakers!r}")
    if utterances < 1:
        raise WorkloadError(f"loadtest needs at least one utterance per cell, got {utterances!r}")
    idle_mean = RATE_LEVELS[rate]
    config = _cell_config(mode)
    plan = None
    if mode == "degraded":
        plan = FaultPlan(
            seed=derive_seed(seed, "loadtest.faults", speakers, rate),
            push_loss=DEGRADED_PUSH_LOSS,
        )
    scenario = build_scenario(
        TESTBED, "echo", seed=seed, config=config, fault_plan=plan,
    )
    for _ in range(speakers - 1):
        add_echo_speaker(scenario)
    scenario.settle()

    env = scenario.env
    rng = env.rng.stream("loadtest.arrivals")
    start = env.sim.now
    issued = 0
    while issued < utterances:
        burst = min(int(rng.integers(1, BURST_MAX + 1)), utterances - issued)
        for _ in range(burst):
            duration = scenario.speak_command(rng)
            issued += 1
            env.sim.run_for(duration + BURST_SPACING)
        env.sim.run_for(float(rng.exponential(idle_mean)))
    # Drain: every pending hold resolves within MAX_HOLD, plus slack
    # for response playback.
    env.sim.run_for(MAX_HOLD + 15.0)
    elapsed = env.sim.now - start

    events = scenario.guard.command_events()
    snapshot = env.obs.metrics.snapshot()
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    hold = snapshot["histograms"]["proxy.hold_duration"]
    timeouts = sum(
        1 for e in events if e.verdict is not None and e.verdict.value == "timeout"
    )
    return LoadCell(
        speakers=speakers,
        rate=rate,
        mode=mode,
        offered=issued,
        duration=elapsed,
        commands=len(events),
        released=int(counters.get("proxy.commands_released", 0)),
        blocked=int(counters.get("proxy.commands_blocked", 0)),
        timeouts=timeouts,
        batched=int(counters.get("decision.batched_settlements", 0)),
        queued=int(counters.get("decision.queued", 0)),
        expired=int(counters.get("decision.expired_in_queue", 0)),
        overflows=int(counters.get("proxy.hold_overflows", 0)),
        failsafes=int(counters.get("proxy.failsafe_resolutions", 0)),
        queue_peak=gauges.get("decision.queue_depth", {}).get("high_water", 0.0),
        inflight_peak=gauges.get("decision.inflight", {}).get("high_water", 0.0),
        hold_p50=histogram_quantile(hold, 0.5),
        hold_p99=histogram_quantile(hold, 0.99),
        metrics=snapshot,
    )


def saturation_knee(cells: Sequence[LoadCell], speakers: int) -> Optional[LoadCell]:
    """The highest-throughput cell still under the latency bound.

    The knee of the commands/sec-vs-latency curve: among one speaker
    count's coordinated cells, the fastest cell whose hold p99 stays at
    or under :data:`KNEE_P99_BOUND` and that lost nothing to timeouts or
    the max-hold failsafe.  ``None`` when every cell is past the knee.
    """
    eligible = [
        c for c in cells
        if c.speakers == speakers and c.mode == "coordinated"
        and c.hold_p99 == c.hold_p99 and c.hold_p99 <= KNEE_P99_BOUND
        and c.timeouts == 0 and c.failsafes == 0
    ]
    if not eligible:
        return None
    return max(eligible, key=lambda c: c.throughput)


@dataclass
class LoadtestResult:
    """The full grid, in submission order."""

    cells: List[LoadCell]
    seed: int

    def render(self) -> str:
        table = render_table(
            "Load test: bursty commands x concurrent speakers (one guard)",
            ["spk", "mode", "rate", "offered", "cmds", "resolved/s",
             "rel", "blk", "t/o", "batched", "queued", "ovfl", "q-peak",
             "hold p50", "hold p99"],
            [cell.row() for cell in self.cells],
        )
        lines = [table, f"seed {self.seed}; {len(self.cells)} cells"]
        knee1 = saturation_knee(self.cells, 1)
        knee4 = saturation_knee(self.cells, 4)
        if knee1 is not None and knee4 is not None and knee1.throughput > 0:
            lines.append(
                f"knee: {knee4.throughput:.3f} resolved/s at 4 speakers vs "
                f"{knee1.throughput:.3f} single-flow "
                f"({knee4.throughput / knee1.throughput:.1f}x), "
                f"hold p99 {knee4.hold_p99:.1f}s at the knee"
            )
        lines.append(
            "modes: coordinated = 2 query slots + batching; strict = 1 slot, "
            "no batching; degraded = 75% push loss + 4 KiB held-byte budget."
        )
        return "\n".join(lines)


def run_loadtest(
    seed: int = 0,
    smoke: bool = False,
    utterances: Optional[int] = None,
    workers: int = 1,
) -> LoadtestResult:
    """Run the grid through the parallel engine.

    The full grid sweeps every speaker count across every offered-load
    level in the coordinated configuration, then adds the strict and
    degraded stress cells at the largest speaker count's highest rate.
    ``smoke`` runs :data:`SMOKE_GRID` instead of :data:`GRID`;
    ``utterances`` overrides the grid's commands per cell.
    """
    speaker_counts, rates, per_cell = SMOKE_GRID if smoke else GRID
    if utterances is not None:
        per_cell = utterances
    tasks = []

    def add(speakers: int, rate: str, mode: str) -> None:
        tasks.append(ExperimentTask(
            fn=run_loadtest_cell,
            args=(speakers, rate, mode),
            kwargs=dict(
                seed=derive_seed(seed, "loadtest", speakers, rate, mode),
                utterances=per_cell,
            ),
            label=f"loadtest/{speakers}spk/{rate}/{mode}",
        ))

    for speakers in speaker_counts:
        for rate in rates:
            add(speakers, rate, "coordinated")
    stress_speakers = max(speaker_counts)
    stress_rate = rates[-1]
    add(stress_speakers, stress_rate, "strict")
    add(stress_speakers, stress_rate, "degraded")

    engine = ExperimentEngine(workers=workers)
    cells = engine.run(tasks)
    return LoadtestResult(cells=list(cells), seed=seed)

"""The benchmark's workloads: set-up, one timed unit, and output checks.

A workload is driven in closed loop from one process: the next unit
starts when the previous one has finished.  Each unit is a pure
function of ``(seed, workload, unit index)`` run in a fresh process, so
a unit run twice must reproduce its digest.  ``unit_s`` is a unit's
timed cost at the reference host speed; it sizes a run, nothing else.

Simulated outputs (block rates, decision latencies, fleet tables) are
digested and reported, never gated: a calibration change may move them
on purpose, a speed-only change must leave every digest identical.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from hostspeed import HostSpeed
from repro.experiments import fleet, loadtest, scenarios, synthesis
from repro.experiments import pool as pool_module
from repro.experiments import workload as workload_module
from repro.experiments.parallel import derive_seed
from repro.experiments.runner import score_interactions
from repro.obs.metrics import histogram_quantile, merge_snapshots

# The Table II house/echo/loc1 cell (paper totals), and the smoke size.
GUARD_COUNTS = (91, 69)
SMOKE_GUARD_COUNTS = (10, 7)
SEVEN_DAY_GAP = (2700.0, 4800.0)  # ~1 hour of idle time between episodes
# Seven-day homes keep the Table II owner:replay mix at a third of its
# size: ~53 episodes over ~2.3 simulated days.  Idle time per command is
# what this workload is about, and it does not depend on the count, so
# a run sees a dozen distinct homes instead of four.
SEVEN_DAY_COUNTS = (30, 23)

MULTI_SPEAKERS = 4
MULTI_RATE = "high"
MULTI_UTTERANCES = 32
SMOKE_MULTI_UTTERANCES = 8

# fleet-fast runs small batches (a few dozen per run); fleet-fast-w2
# larger ones, so fork-pool start-up is not most of a batch.
FAST_HOMES, FAST_W2_HOMES, FAST_CHUNK = 2048, 8192, 1024
SMOKE_FAST_HOMES, SMOKE_FAST_CHUNK = 512, 128
FULL_HOMES = 32
SMOKE_FULL_HOMES = 2
# Full-fidelity homes draw from the un-jittered plans only: 26 world
# buckets instead of 130, so building every template fits in set-up
# several times per run.  Per-home work (packet layers plus one
# snapshot restore) does not depend on the plan scale.  Homes are short
# (2 owner commands and, if attacked, 1 attack on average), so the
# per-home cost (restore, world start) is a third of a home's time:
# homes/s and ms/command then both move little with the number of
# commands a seed happens to draw, and a run sees ~650 homes.
FULL_POPULATION = dict(plan_scales=(1.0,), legit_commands_mean=2.0, attacks_mean=1.0)
BUCKET_DISCOVERY_HOMES = 4096


@dataclass
class Unit:
    """One timed unit of work and what it produced."""

    index: int
    repeat: bool = False  # a second run of unit 0, for the digest check only
    wall_s: float = 0.0  # timed region only, host-speed sampling excluded
    scaled_s: float = 0.0  # at the reference host speed (see hostspeed.py)
    homes: int = 0
    commands: int = 0  # guard command windows (fleet-fast: decisions)
    failed: int = 0
    digest: str = ""
    outputs: Dict[str, object] = field(default_factory=dict)
    snapshot: Optional[dict] = None  # the homes' merged obs metrics


def _timed(root: Callable, fn: Callable, workers: int = 1):
    """``(fn(), wall seconds, seconds at the reference host speed)``.

    ``root`` is the tracer's root span (a no-op when tracing is off);
    ``workers`` > 1 samples the pool processes ``fn`` forks instead of
    this one.
    """
    gc.collect()
    with HostSpeed(workers) as speed:
        start = time.perf_counter()
        with root():
            value = fn()
        wall = time.perf_counter() - start
    return value, speed.effective(wall), speed.scale(wall)


def _report(what: str, problems: List[str]) -> None:
    print(f"e2ebench: {what}: " + "; ".join(problems), file=sys.stderr)


def conservation_breaks(snapshot: dict, command_windows: int) -> List[str]:
    """Hold/release conservation laws one home's metrics must satisfy.

    Every record the proxy held was resolved (released or dropped), no
    held bytes or records are left at the end, and every command window
    got exactly one release-or-block outcome.
    """
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    problems = []
    held = counters.get("proxy.records_held", 0)
    resolved = counters.get("proxy.records_resolved", 0)
    if held != resolved:
        problems.append(f"records_held {held} != records_resolved {resolved}")
    for name in ("proxy.held_bytes", "proxy.held_records"):
        left = gauges.get(name, {}).get("value", 0.0)
        if left != 0:
            problems.append(f"{name} ends at {left}")
    outcomes = (counters.get("proxy.commands_released", 0)
                + counters.get("proxy.commands_blocked", 0))
    if outcomes != command_windows:
        problems.append(f"released+blocked {outcomes} != command windows {command_windows}")
    return problems


def guard_digest(scenario) -> str:
    """SHA-256 of the guard's event stream and the final sim clock."""
    digest = hashlib.sha256()
    for event in scenario.guard.log.events:
        digest.update(repr((
            event.window_id, event.flow_id, event.speaker_ip, event.protocol,
            event.opened_at,
            event.classification.value if event.classification else None,
            event.classified_at, event.classify_packet_count,
            event.verdict.value if event.verdict else None,
            event.verdict_at, event.released_at, event.discarded_at,
            event.held_records,
            tuple(repr(report) for report in event.rssi_reports),
        )).encode())
    digest.update(repr(scenario.sim.now).encode())
    return digest.hexdigest()


def _latencies(events) -> List[float]:
    return [event.decision_latency for event in events
            if event.decision_latency is not None]


class Workload:
    """What every workload provides; the optional steps default to none.

    ``run_unit(index, root)`` returns a :class:`Unit`; ``unit_s`` is a
    unit's timed cost at the reference host speed.
    """

    unit_s: float

    def setup(self, first: int) -> None:
        """Everything before the first timed call; ``first`` is the
        index of the first unit this process will run."""

    def final_checks(self, units: List[Unit]) -> Dict[str, bool]:
        return {}

    def pool_stats(self) -> Dict[str, int]:
        return {"template_builds": 0, "restores": 0}

    def close(self) -> None:
        pass


class GuardWorkload(Workload):
    """One house/echo home per unit through the seven-day workload."""

    def __init__(self, name: str, seed: int, smoke: bool, unit_s: float,
                 counts=GUARD_COUNTS, episode_gap=None) -> None:
        self.name = name
        self.unit_s = unit_s
        self.seed = seed
        self.counts = SMOKE_GUARD_COUNTS if smoke else counts
        self.episode_gap = episode_gap
        self._first = None

    def _build(self, index: int):
        return scenarios.build_scenario(
            "house", "echo", deployment=0, owner_count=2,
            seed=derive_seed(self.seed, f"bench.{self.name}", index))

    def setup(self, first: int) -> None:
        self._first = (first, self._build(first))

    def run_unit(self, index: int, root: Callable) -> Unit:
        unit = Unit(index, homes=1)
        try:
            first, self._first = self._first, None
            scenario = first[1] if first and first[0] == index else self._build(index)
            driver = workload_module.SevenDayWorkload(scenario, episode_gap=self.episode_gap)

            def run():
                driver.run(*self.counts)
                return scenario.speaker.settle_all()

            records, unit.wall_s, unit.scaled_s = _timed(root, run)
            events = scenario.guard.command_events()
            unit.commands = len(events)
            unit.digest = guard_digest(scenario)
            unit.snapshot = scenario.env.obs.metrics.snapshot()
            problems = conservation_breaks(unit.snapshot, unit.commands)
            if problems:
                unit.failed = 1
                _report(f"{self.name} unit {index}", problems)
            matrix = score_interactions(records)
            unit.outputs = {
                "attacks": matrix.actual_positive,
                "attacks_blocked": matrix.true_positive,
                "owner_commands": matrix.actual_negative,
                "owner_blocked": matrix.false_positive,
                "latencies_s": _latencies(events),
            }
        except Exception:
            unit.failed = 1
            traceback.print_exc()
        return unit

    def close(self) -> None:
        self._first = None


class MultiSpeakerWorkload(Workload):
    """Three loadtest cells per unit: 4 speakers at the high rate, one
    cell per guard mode (coordinated, strict, degraded)."""

    name = "guard-multispeaker"
    unit_s = 0.75

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.utterances = SMOKE_MULTI_UTTERANCES if smoke else MULTI_UTTERANCES

    def run_unit(self, index: int, root: Callable) -> Unit:
        unit = Unit(index)
        digest = hashlib.sha256()
        snapshots = []
        outputs = {"commands": 0, "released": 0, "blocked": 0, "timeouts": 0,
                   "overflows": 0}
        for mode in loadtest.MODES:
            unit.homes += 1
            seed = derive_seed(self.seed, f"bench.{self.name}", index, mode)
            try:
                cell, wall, scaled = _timed(root, lambda: loadtest.run_loadtest_cell(
                    MULTI_SPEAKERS, MULTI_RATE, mode, seed=seed,
                    utterances=self.utterances))
            except Exception:
                unit.failed += 1
                traceback.print_exc()
                continue
            unit.wall_s += wall
            unit.scaled_s += scaled
            unit.commands += cell.commands
            digest.update(repr((cell.row(), cell.duration)).encode())
            digest.update(json.dumps(cell.metrics, sort_keys=True).encode())
            snapshots.append(cell.metrics)
            problems = conservation_breaks(cell.metrics, cell.commands)
            if problems:
                unit.failed += 1
                _report(f"{self.name} unit {index} {mode}", problems)
            for key, value in (("commands", cell.commands), ("released", cell.released),
                               ("blocked", cell.blocked), ("timeouts", cell.timeouts),
                               ("overflows", cell.overflows)):
                outputs[key] += value
        unit.digest = digest.hexdigest()
        unit.snapshot = merge_snapshots(snapshots)
        unit.outputs = outputs
        return unit


def fleet_breaks(result, homes: int, fast: bool) -> List[str]:
    """Fleet-level conservation: every home counted once and, for the
    reduced-order model, every decision accounted for."""
    totals = result.accumulator.totals()
    problems = []
    if totals["homes"] != homes:
        problems.append(f"table counts {totals['homes']} homes of {homes}")
    if fast:
        if totals["decisions"] != totals["legit_commands"] + totals["attacks"]:
            problems.append("decisions != legit commands + attacks")
        if result.accumulator.total_sketch().count != totals["decisions"] - totals["timeouts"]:
            problems.append("latency sketch count != resolved decisions")
    if totals["false_blocks"] > totals["legit_commands"]:
        problems.append("more false blocks than legit commands")
    if totals["attacks_blocked"] > totals["attacks"]:
        problems.append("more attacks blocked than attacks")
    return problems


class FleetAudit:
    """Per-home conservation checks on the full-fidelity fleet path.

    Wraps ``ScenarioPool.acquire`` (to see each home's world) and
    ``fleet.simulate_home_full`` (to check it once the home is done).
    The checks cost ~0.02 ms of a ~12 ms home.  A home
    that raises is counted as failed and folds as an empty summary.
    """

    def __init__(self) -> None:
        self.commands = 0
        self.failed = 0
        self.snapshots: List[dict] = []
        self._scenario = None
        self._acquire = None
        self._home = None

    def install(self) -> None:
        self._acquire = pool_module.ScenarioPool.acquire
        self._home = fleet.simulate_home_full
        audit = self

        def acquire(pool, spec):
            audit._scenario = audit._acquire(pool, spec)
            return audit._scenario

        def simulate_home_full(spec):
            audit._scenario = None
            try:
                summary = audit._home(spec)
            except Exception:
                audit.failed += 1
                traceback.print_exc()
                return fleet.HomeSummary(testbed=spec.testbed, attacked=False)
            scenario = audit._scenario
            snapshot = scenario.env.obs.metrics.snapshot()
            windows = len(scenario.guard.command_events())
            audit.commands += windows
            audit.snapshots.append(snapshot)
            problems = conservation_breaks(snapshot, windows)
            if problems:
                audit.failed += 1
                _report(f"fleet-full home {spec.index}", problems)
            return summary

        pool_module.ScenarioPool.acquire = acquire
        fleet.simulate_home_full = simulate_home_full

    def take(self):
        """``(commands, failed, merged snapshot)`` since the last take."""
        taken = (self.commands, self.failed, merge_snapshots(self.snapshots))
        self.commands, self.failed, self.snapshots = 0, 0, []
        return taken

    def uninstall(self) -> None:
        if self._home is not None:
            fleet.simulate_home_full = self._home
            pool_module.ScenarioPool.acquire = self._acquire
            self._home = self._acquire = None


class FleetWorkload(Workload):
    """One ``run_fleet`` batch per unit, through the public fleet API."""

    def __init__(self, name: str, seed: int, smoke: bool, fidelity: str,
                 workers: int, unit_s: float, homes: int = 0) -> None:
        self.name = name
        self.unit_s = unit_s
        self.seed = seed
        self.fidelity = fidelity
        self.workers = workers
        self.fast = fidelity == "fast"
        if self.fast:
            self.homes, self.chunk = ((SMOKE_FAST_HOMES, SMOKE_FAST_CHUNK) if smoke
                                      else (homes, FAST_CHUNK))
            self.population = synthesis.PopulationModel()
        else:
            self.homes = self.chunk = SMOKE_FULL_HOMES if smoke else FULL_HOMES
            self.population = synthesis.PopulationModel(**FULL_POPULATION)
        self.audit: Optional[FleetAudit] = None
        self.first_digest: Optional[str] = None

    def _config(self, index: int):
        return fleet.FleetConfig(
            homes=self.homes, chunk_size=self.chunk, fidelity=self.fidelity,
            seed=derive_seed(self.seed, f"bench.{self.name}", index),
            population=self.population)

    def setup(self, first: int) -> None:
        if self.fast:
            synthesis.warm_worlds(self.population)
            return
        self.audit = FleetAudit()
        self.audit.install()
        # Build the template of every bucket the population reaches, so
        # no unit pays for one; discovery uses a fixed seed, not --seed.
        keys = {pool_module.pool_key(self.population.home(0, 0, offset, offset))
                for offset in range(BUCKET_DISCOVERY_HOMES)}
        pool = fleet._scenario_pool()
        for key in sorted(keys):
            pool.template(key)

    def run_unit(self, index: int, root: Callable) -> Unit:
        unit = Unit(index, homes=self.homes)
        config = self._config(index)
        try:
            result, unit.wall_s, unit.scaled_s = _timed(
                root, lambda: fleet.run_fleet(config, workers=self.workers), self.workers)
        except Exception:
            unit.failed = self.homes
            traceback.print_exc()
            return unit
        table = result.render()
        unit.digest = hashlib.sha256(table.encode()).hexdigest()
        if self.first_digest is None:
            self.first_digest = unit.digest
        totals = result.accumulator.totals()
        if self.fast:
            unit.commands = totals["decisions"]
        else:
            unit.commands, unit.failed, unit.snapshot = self.audit.take()
        problems = fleet_breaks(result, self.homes, self.fast)
        if problems:
            unit.failed = self.homes
            _report(f"{self.name} unit {index}", problems)
        unit.outputs = {key: totals[key] for key in (
            "legit_commands", "false_blocks", "attacks", "attacks_blocked",
            "decisions", "timeouts")}
        if index == 0:
            unit.outputs["table"] = table
        return unit

    def final_checks(self, units: List[Unit]) -> Dict[str, bool]:
        """At two workers, unit 0's table must equal the serial one."""
        if self.workers == 1 or self.first_digest is None:
            return {}
        serial = fleet.run_fleet(self._config(0), workers=1)
        same = hashlib.sha256(serial.render().encode()).hexdigest() == self.first_digest
        return {"parallel_table_matches": same}

    def pool_stats(self) -> Dict[str, int]:
        if self.fast:
            return super().pool_stats()
        pool = fleet._scenario_pool()
        return {"template_builds": pool.template_builds, "restores": pool.restores}

    def close(self) -> None:
        if self.audit is not None:
            self.audit.uninstall()


WORKLOADS: Dict[str, Callable[[int, bool], Workload]] = {
    "guard-compressed": lambda seed, smoke: GuardWorkload(
        "guard-compressed", seed, smoke, unit_s=0.6),
    "guard-sevenday": lambda seed, smoke: GuardWorkload(
        "guard-sevenday", seed, smoke, unit_s=0.63, counts=SEVEN_DAY_COUNTS,
        episode_gap=SEVEN_DAY_GAP),
    "guard-multispeaker": MultiSpeakerWorkload,
    "fleet-fast": lambda seed, smoke: FleetWorkload(
        "fleet-fast", seed, smoke, "fast", workers=1, unit_s=0.3, homes=FAST_HOMES),
    "fleet-fast-w2": lambda seed, smoke: FleetWorkload(
        "fleet-fast-w2", seed, smoke, "fast", workers=2, unit_s=0.65,
        homes=FAST_W2_HOMES),
    "fleet-full": lambda seed, smoke: FleetWorkload(
        "fleet-full", seed, smoke, "full", workers=1, unit_s=0.38),
}


def domain_counts(snapshot: Optional[dict]) -> Dict[str, float]:
    """The per-layer domain counts the trace reports, from merged obs
    metrics (all zero for workloads whose homes carry no metrics)."""
    snapshot = snapshot or {"counters": {}, "gauges": {}, "histograms": {}}
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    wait = snapshot["histograms"].get("decision.queue_wait")
    wait_p50 = histogram_quantile(wait, 0.5) if wait and wait["count"] else 0.0
    return {
        "records_held": counters.get("proxy.records_held", 0),
        "held_bytes_peak": gauges.get("proxy.held_bytes", {}).get("high_water", 0.0),
        "hold_overflows": counters.get("proxy.hold_overflows", 0),
        "windows_opened": counters.get("recognition.windows_opened", 0),
        "windows_command": counters.get("recognition.classified.command", 0),
        "queries": counters.get("decision.queries", 0),
        "queued": counters.get("decision.queued", 0),
        "batched": counters.get("decision.batched_settlements", 0),
        "queue_wait_p50_s": wait_p50,
        "push_sent": counters.get("push.sent", 0),
        "push_lost": counters.get("push.lost", 0),
        "retries": counters.get("decision.retries_sent", 0),
        "traces_recorded": counters.get("floor.traces_recorded", 0),
    }

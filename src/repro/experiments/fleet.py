"""Fleet-scale campaign simulation (``repro fleet``).

The paper evaluates VoiceGuard on three testbeds; the production
question is what a *city* of protected homes looks like: availability,
false-block rate, and decision-latency tails across 10k-1M
heterogeneous households, under a remote campaign that only reaches a
fraction of them (the Alexa-ecosystem case study's threat model).

Architecture — built for constant memory and maximum homes/sec:

* Homes are synthesized, not stored: :mod:`repro.experiments.synthesis`
  turns ``(seed, shard, offset)`` into a :class:`HomeSpec`, so a task
  is three integers plus the shared :class:`FleetConfig` — the parent
  process never materializes a million specs, let alone results.
* Dispatch is **chunked**: one pool task simulates ``chunk_size``
  homes and returns a single folded :class:`FleetAccumulator` payload,
  amortizing submit/pickle/IPC overhead that would otherwise dominate.
* Aggregation is **streaming**: chunk payloads fold into per-testbed
  integer counters and a mergeable
  :class:`~repro.obs.metrics.QuantileSketch` for latency percentiles as
  futures complete (:meth:`ExperimentEngine.run_fold`, at most
  ``4 * workers`` chunks in flight) — peak memory is independent of
  fleet size.  Each home outcome is counted once, in
  :class:`FleetAccumulator`.
* Every quantity a fleet table renders is a pure function of integer
  counts, so the table is byte-identical across worker counts, chunk
  sizes, and shard orderings.

Two fidelities share the same population and reducers:

``fast`` (default)
    A reduced-order home model: each command episode samples the
    *real* propagation surface (walls, slabs, shadowing — the paper's
    leak cluster included) at the occupant's measurement point and
    applies the guard's threshold decision plus a retry/push-loss
    latency model.  ~10-100 microseconds per home; this is what makes
    million-home sweeps possible.
``full``
    The packet-level scenario simulation (speaker boot, TCP, BLE
    scans, the works) per home — seconds per home, for validating the
    reduced model on small fleets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis.reporting import fmt_percent, render_table
from repro.errors import WorkloadError
from repro.experiments.parallel import (
    ExperimentEngine,
    ExperimentTask,
    derive_seed,
)
from repro.experiments.synthesis import (
    HomeSpec,
    PopulationModel,
    fleet_world,
    warm_worlds,
)
from repro.obs.metrics import QuantileSketch

FIDELITIES = ("fast", "full")

# Retry policy the fleet guard runs (the resilience sweep's winner):
# up to two re-pushes with exponential backoff.
PUSH_ATTEMPTS = 3
RETRY_BASE = 1.2
RETRY_CAP = 4.0

# Latency model (seconds): BLE scan window by device kind, then one
# push round-trip per attempt.
SCAN_WINDOW = {"smartphone": (1.1, 2.0), "smartwatch": (1.4, 2.6)}
PUSH_RTT_BASE = 0.18
PUSH_RTT_TAIL = 0.12
WATCH_EXTRA_NOISE = 0.15  # wrist-worn scanners read noisier

# Cumulative backoff by retry count: retries=k waited through the
# first k backoff stages (base doubling per stage, capped).
_BACKOFF_BY_RETRIES = np.cumsum(
    [0.0] + [min(RETRY_BASE * 2.0 ** k, RETRY_CAP)
             for k in range(PUSH_ATTEMPTS - 1)])

SKETCH_ALPHA = 0.01  # 1% relative error on reported percentiles


# ---------------------------------------------------------------------------
# Per-home outcomes
# ---------------------------------------------------------------------------

@dataclass
class HomeSummary:
    """One home's campaign outcome — the guard-summary unit the fleet
    reducers fold; integer counts only (plus transient latencies)."""

    testbed: str
    attacked: bool
    legit: int = 0
    false_blocks: int = 0
    attacks: int = 0
    attacks_blocked: int = 0
    decisions: int = 0
    timeouts: int = 0
    retries: int = 0
    # Resolved-decision latencies in integer microseconds; consumed by
    # the chunk accumulator, never shipped across the pool per home.
    latencies_us: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))


def _latency_model(
    rng: np.random.Generator,
    n: int,
    device_kind: str,
    push_loss: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized decision latency/timeout draws for ``n`` decisions.

    Returns ``(latency_seconds, timeout_mask, retry_counts)``.  Each
    decision scans, then pushes up to :data:`PUSH_ATTEMPTS` times; a
    failed attempt costs one round-trip plus exponential backoff.  A
    decision whose every attempt fails is a timeout (the guard falls
    through to its fail-open policy).
    """
    lo, hi = SCAN_WINDOW[device_kind]
    scan = rng.uniform(lo, hi, size=n)
    rtt = PUSH_RTT_BASE + rng.exponential(PUSH_RTT_TAIL, size=n)
    if push_loss <= 0.0:
        # Loss-free homes (most of the fleet): first push always lands.
        return (scan + rtt, np.zeros(n, dtype=bool),
                np.zeros(n, dtype=np.int64))
    fails = rng.random((n, PUSH_ATTEMPTS)) < push_loss
    # Retries = failed attempts before the first success (0..ATTEMPTS-1).
    first_ok = np.argmin(fails, axis=1)  # index of first False
    timeout = fails.all(axis=1)
    retries = np.where(timeout, PUSH_ATTEMPTS - 1, first_ok)
    latency = scan + (retries + 1) * rtt + _BACKOFF_BY_RETRIES[retries]
    return latency, timeout, retries.astype(np.int64)


def simulate_home(spec: HomeSpec) -> HomeSummary:
    """The reduced-order home model (``fast`` fidelity).

    Every RSSI figure comes from the real propagation substrate
    (:func:`~repro.experiments.synthesis.fleet_world` caches the
    per-bucket surfaces); this function adds the home's occupancy,
    noise, and decision policy on top.  The draw order is fixed and
    documented — it defines the population.
    """
    world = fleet_world(spec.testbed, spec.deployment, spec.plan_scale)
    rng = np.random.default_rng(derive_seed(spec.seed, "home.run"))
    threshold = world.threshold_base - spec.threshold_margin
    sigma = world.model.params.sample_noise_sigma
    if spec.device_kind == "smartwatch":
        sigma += WATCH_EXTRA_NOISE
    occlusion = world.model.params.body_occlusion

    n_legit = spec.legit_commands
    n_attack = spec.attacks
    extra = spec.owner_count - 1
    owners = max(spec.owner_count, 1)
    summary = HomeSummary(testbed=spec.testbed, attacked=n_attack > 0,
                          legit=n_legit, attacks=n_attack)

    # All randomness for the episode block is drawn in four fixed-order
    # vectors (legit-point picks, away-point picks, uniforms, standard
    # normals) and sliced — part of the population definition, and the
    # reason per-home cost stays in the tens of microseconds.
    legit_idx = rng.integers(0, world.legit_means.size,
                             size=(1 + extra) * n_legit)
    away_idx = rng.integers(0, world.away_means.size,
                            size=extra * n_legit + owners * n_attack)
    uniforms = rng.random((1 + extra) * n_legit)
    normals = rng.standard_normal((2 + extra) * n_legit + owners * n_attack)

    # -- legitimate episodes: the speaking owner is at a legit point --
    samples = world.legit_means[legit_idx[:n_legit]] + sigma * normals[:n_legit]
    blocked_mask = uniforms[:n_legit] < spec.body_block_fraction
    body_loss = np.abs(occlusion + (occlusion / 2)
                       * normals[n_legit:2 * n_legit])
    samples -= blocked_mask * body_loss
    allow = samples >= threshold
    cursor = 2 * n_legit
    # Extra owners wander; any device above threshold also grants.
    if extra > 0:
        away = uniforms[n_legit:].reshape(extra, n_legit) < spec.away_fraction
        opts = away_idx[:extra * n_legit].reshape(extra, n_legit)
        ipts = legit_idx[n_legit:].reshape(extra, n_legit)
        other = np.where(away, world.away_means[opts], world.legit_means[ipts])
        other += sigma * normals[cursor:cursor + extra * n_legit].reshape(
            extra, n_legit)
        allow |= (other >= threshold).any(axis=0)
        cursor += extra * n_legit

    # -- attack episodes: the campaign fires while every owner is away --
    apts = away_idx[extra * n_legit:].reshape(owners, n_attack)
    asamples = world.away_means[apts] + sigma * normals[cursor:].reshape(
        owners, n_attack)
    attack_exposed = (asamples >= threshold).any(axis=0)

    # -- decision pipeline: scans, pushes, retries, timeouts --
    n = n_legit + n_attack
    latency, timeout, retries = _latency_model(
        rng, n, spec.device_kind, spec.push_loss)
    legit_timeout = timeout[:n_legit]
    attack_timeout = timeout[n_legit:]

    # Legit: a resolved below-threshold reading is a false block; a
    # timeout falls open (executes), costing availability, not a block.
    summary.false_blocks = int((~legit_timeout & ~allow).sum())
    # Attack: blocked only when resolved with every device below the
    # threshold; a leak-zone reading or a timeout lets it execute.
    summary.attacks_blocked = int((~attack_timeout & ~attack_exposed).sum())

    summary.decisions = n
    summary.timeouts = int(timeout.sum())
    summary.retries = int(retries.sum())
    resolved = latency[~timeout]
    summary.latencies_us = np.rint(resolved * 1e6).astype(np.int64)
    return summary


_SCENARIO_POOL = None


def _scenario_pool():
    """The worker-process scenario pool (built lazily per process)."""
    global _SCENARIO_POOL
    if _SCENARIO_POOL is None:
        from repro.experiments.pool import ScenarioPool

        _SCENARIO_POOL = ScenarioPool()
    return _SCENARIO_POOL


def _summarize_full(scenario, spec: HomeSpec) -> HomeSummary:
    """Run a built home as one seven-day cell and fold the summary."""
    from repro.experiments.runner import run_cell

    cell = run_cell(scenario, spec.legit_commands, spec.attacks)
    matrix, resilience = cell.matrix, cell.resilience
    return HomeSummary(
        testbed=spec.testbed,
        attacked=spec.attacks > 0,
        legit=matrix.actual_negative,
        false_blocks=matrix.false_positive,
        attacks=matrix.actual_positive,
        attacks_blocked=matrix.true_positive,
        decisions=resilience.decisions,
        timeouts=resilience.timeouts,
        retries=resilience.retries,
        latencies_us=np.rint(np.asarray(cell.decision_latencies, dtype=np.float64) * 1e6
                             ).astype(np.int64),
    )


def simulate_home_full(spec: HomeSpec) -> HomeSummary:
    """Packet-level fidelity: one full scenario simulation per home.

    Worlds come from the warm-start scenario pool
    (:mod:`repro.experiments.pool`): one template build per world
    bucket, then a snapshot restore keyed to each home — byte-identical
    to a from-scratch build (:func:`repro.experiments.pool.build_home_cold`)
    and an order of magnitude faster, which is what makes
    ``--fidelity full`` usable beyond a handful of homes.
    """
    return _summarize_full(_scenario_pool().acquire(spec), spec)


# ---------------------------------------------------------------------------
# Streaming reducers
# ---------------------------------------------------------------------------

COUNT_KEYS = (
    "homes", "homes_attacked", "legit_commands", "false_blocks",
    "attacks", "attacks_blocked", "decisions", "timeouts", "retries",
    "latency_total_us",
)


def _sketch_add_array(sketch: QuantileSketch, values_us: np.ndarray) -> None:
    """Bulk-add integer-microsecond latencies to a sketch.

    Bucket indices are computed vectorized; because *every* fleet path
    (serial or pooled, any chunking) lands values through this one
    helper, the resulting sketch is identical across all of them.
    """
    if values_us.size == 0:
        return
    v = np.asarray(values_us, dtype=np.float64)
    sketch.count += int(v.size)
    mn = float(v.min())
    mx = float(v.max())
    if mn < sketch.min:
        sketch.min = mn
    if mx > sketch.max:
        sketch.max = mx
    zero = v <= QuantileSketch.MIN_TRACKED
    zeros = int(zero.sum())
    if zeros:
        sketch.zero_count += zeros
        v = v[~zero]
    if v.size:
        indices = np.ceil(np.log(v) / sketch._log_gamma).astype(np.int64)
        base = int(indices.min())
        histogram = np.bincount(indices - base)
        buckets = sketch.buckets
        for offset in np.flatnonzero(histogram):
            index = base + int(offset)
            buckets[index] = buckets.get(index, 0) + int(histogram[offset])


class FleetAccumulator:
    """Constant-memory fold target for a streaming fleet run.

    Holds per-testbed integer counters and a per-testbed mergeable
    latency sketch — never a per-home result.  ``merge_payload`` is
    commutative and associative over the integer state, which is what
    makes fleet tables independent of completion order.
    """

    def __init__(self) -> None:
        self.per_testbed: Dict[str, Dict[str, int]] = {}
        self.sketches: Dict[str, QuantileSketch] = {}

    # -- in-worker accumulation -----------------------------------------
    def _bucket(self, testbed: str) -> Dict[str, int]:
        counts = self.per_testbed.get(testbed)
        if counts is None:
            counts = self.per_testbed[testbed] = {key: 0 for key in COUNT_KEYS}
            self.sketches[testbed] = QuantileSketch(SKETCH_ALPHA)
        return counts

    def add_home(self, summary: HomeSummary) -> None:
        counts = self._bucket(summary.testbed)
        counts["homes"] += 1
        counts["homes_attacked"] += 1 if summary.attacked else 0
        counts["legit_commands"] += summary.legit
        counts["false_blocks"] += summary.false_blocks
        counts["attacks"] += summary.attacks
        counts["attacks_blocked"] += summary.attacks_blocked
        counts["decisions"] += summary.decisions
        counts["timeouts"] += summary.timeouts
        counts["retries"] += summary.retries
        counts["latency_total_us"] += int(summary.latencies_us.sum())
        _sketch_add_array(self.sketches[summary.testbed], summary.latencies_us)

    # -- cross-chunk folding --------------------------------------------
    def to_payload(self) -> dict:
        """Plain picklable form (the chunk's pool return value)."""
        return {
            "per_testbed": {name: dict(counts)
                            for name, counts in self.per_testbed.items()},
            "sketches": {name: sketch.to_dict()
                         for name, sketch in self.sketches.items()},
        }

    def merge_payload(self, payload: dict) -> "FleetAccumulator":
        for name, counts in payload["per_testbed"].items():
            bucket = self._bucket(name)
            for key in COUNT_KEYS:
                bucket[key] += counts.get(key, 0)
        for name, sketch_payload in payload["sketches"].items():
            self._bucket(name)  # ensure the sketch exists
            self.sketches[name].merge(QuantileSketch.from_dict(sketch_payload))
        return self

    # -- fleet-level views ----------------------------------------------
    def totals(self) -> Dict[str, int]:
        total = {key: 0 for key in COUNT_KEYS}
        for counts in self.per_testbed.values():
            for key in COUNT_KEYS:
                total[key] += counts[key]
        return total

    def total_sketch(self) -> QuantileSketch:
        merged = QuantileSketch(SKETCH_ALPHA)
        for name in sorted(self.sketches):
            merged.merge(self.sketches[name])
        return merged


# ---------------------------------------------------------------------------
# Chunked worker entry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FleetConfig:
    """A fleet run: size, sharding, dispatch grain, and population."""

    homes: int
    shards: int = 8
    seed: int = 0
    chunk_size: int = 256
    fidelity: str = "fast"
    population: PopulationModel = field(default_factory=PopulationModel)

    def __post_init__(self) -> None:
        if self.homes < 1:
            raise WorkloadError(f"fleet needs at least one home, got {self.homes!r}")
        if self.shards < 1:
            raise WorkloadError(f"shards must be >= 1, got {self.shards!r}")
        if self.chunk_size < 1:
            raise WorkloadError(f"chunk_size must be >= 1, got {self.chunk_size!r}")
        if self.fidelity not in FIDELITIES:
            raise WorkloadError(
                f"unknown fidelity {self.fidelity!r}; choose from {FIDELITIES}")

    def shard_size(self, shard: int) -> int:
        base, remainder = divmod(self.homes, self.shards)
        return base + (1 if shard < remainder else 0)

    def shard_start(self, shard: int) -> int:
        base, remainder = divmod(self.homes, self.shards)
        return shard * base + min(shard, remainder)

    def iter_chunks(self, shard_order: Optional[List[int]] = None,
                    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(shard, lo, hi)`` chunk bounds, streaming."""
        chunk = self.chunk_size
        shards = shard_order if shard_order is not None else range(self.shards)
        for shard in shards:
            size = self.shard_size(shard)
            for lo in range(0, size, chunk):
                yield shard, lo, min(lo + chunk, size)


def run_fleet_chunk(config: FleetConfig, shard: int, lo: int, hi: int) -> dict:
    """Simulate homes ``lo..hi`` of ``shard``; return one folded payload.

    This is the pool-task unit: synthesis happens worker-side from
    three integers, and the return value is a constant-size payload no
    matter how many homes the chunk covers.
    """
    accumulator = FleetAccumulator()
    # simulate_home_full is looked up per call so that a wrapper
    # installed on the module (e.g. a benchmark audit) sees every home.
    simulate = simulate_home if config.fidelity == "fast" else simulate_home_full
    start_index = config.shard_start(shard)
    for offset in range(lo, hi):
        spec = config.population.home(config.seed, shard, offset,
                                      start_index + offset)
        accumulator.add_home(simulate(spec))
    return accumulator.to_payload()


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

class FleetProgressMeter:
    """Counted progress for a streaming fleet run.

    Counts each folded chunk's homes from its ``per_testbed`` counts
    and reports homes done, throughput, and the ETA implied by the
    mean rate so far.  Emission is rate-limited so a million-home fast
    run doesn't drown stderr; the final update always emits.
    """

    def __init__(self, total_homes: int, emit=None,
                 min_interval: float = 0.5) -> None:
        self.total = total_homes
        self.done = 0
        self.emit = emit if emit is not None else self._default_emit
        self.min_interval = min_interval
        self.start = time.perf_counter()
        self._last_emit = float("-inf")

    @staticmethod
    def _default_emit(message: str) -> None:
        import sys

        print(message, file=sys.stderr, flush=True)

    def update(self, payload: dict) -> None:
        """Fold one chunk's payload into the meter, maybe emitting."""
        self.done += sum(counts["homes"]
                         for counts in payload["per_testbed"].values())
        now = time.perf_counter()
        final = self.done >= self.total
        if not final and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        elapsed = max(now - self.start, 1e-9)
        rate = self.done / elapsed
        remaining = max(self.total - self.done, 0)
        eta = remaining / rate if rate > 0 else float("inf")
        self.emit(
            f"fleet: {self.done}/{self.total} homes "
            f"({self.done / self.total:.0%}) — {rate:,.0f} homes/sec, "
            f"ETA {eta:,.0f}s"
        )


@dataclass
class FleetResult:
    """A completed fleet run: accumulators plus run telemetry."""

    config: FleetConfig
    accumulator: FleetAccumulator
    elapsed: float
    chunks: int
    workers: int

    @property
    def homes_per_sec(self) -> float:
        return self.config.homes / self.elapsed if self.elapsed > 0 else float("inf")

    def _row(self, name: str, counts: Dict[str, int],
             sketch: QuantileSketch) -> List[object]:
        def rate(num: int, den: int) -> float:
            return num / den if den else float("nan")

        def seconds(q: float) -> str:
            value = sketch.quantile(q)
            return f"{value / 1e6:.2f}s" if value == value else "—"

        decisions = counts["decisions"]
        return [
            name,
            counts["homes"],
            counts["homes_attacked"],
            counts["legit_commands"],
            fmt_percent(rate(counts["false_blocks"], counts["legit_commands"])),
            counts["attacks"],
            fmt_percent(rate(counts["attacks_blocked"], counts["attacks"])),
            fmt_percent(rate(decisions - counts["timeouts"], decisions)),
            seconds(0.50),
            seconds(0.99),
        ]

    def render(self) -> str:
        """The fleet table — deterministic (no wall-clock content).

        Every cell derives from integer counts or sketch buckets, so
        the rendering is byte-identical across worker counts, chunk
        sizes, and shard orders.
        """
        acc = self.accumulator
        rows = [
            self._row(name, acc.per_testbed[name], acc.sketches[name])
            for name in sorted(acc.per_testbed)
        ]
        if len(acc.per_testbed) > 1:
            rows.append(self._row("all", acc.totals(), acc.total_sketch()))
        population = self.config.population
        table = render_table(
            f"Fleet simulation: {self.config.homes} homes, "
            f"{self.config.shards} shards, seed {self.config.seed} "
            f"({self.config.fidelity} fidelity)",
            ["testbed", "homes", "attacked", "commands", "false-block",
             "attacks", "blocked", "avail", "p50", "p99"],
            rows,
        )
        notes = [
            table,
            f"attack prevalence {population.attack_prevalence:.0%}; "
            "false-block = resolved legitimate commands denied; "
            "avail = decisions resolved before the fail-open window; "
            "p50/p99 over resolved decision latency "
            f"(±{SKETCH_ALPHA:.0%} relative, mergeable sketch).",
        ]
        return "\n".join(notes)

    def render_throughput(self) -> str:
        return (f"{self.config.homes} homes in {self.elapsed:.2f}s — "
                f"{self.homes_per_sec:,.0f} homes/sec "
                f"(workers={self.workers}, "
                f"chunk={self.config.chunk_size}, {self.chunks} tasks)")


def run_fleet(
    config: FleetConfig,
    workers: int = 1,
    progress: bool = False,
    shard_order: Optional[List[int]] = None,
) -> FleetResult:
    """Stream a fleet through the experiment engine.

    Chunk payloads fold as futures complete, with at most
    ``4 * workers`` tasks in flight, so memory stays bounded at any
    fleet size.  Chunks are never cached: a million per-chunk entries
    would cost more to read back than to recompute.

    ``progress=True`` attaches a :class:`FleetProgressMeter` (counted
    homes done / homes-per-sec / ETA on stderr).
    """
    meter = FleetProgressMeter(config.homes) if progress else None
    engine = ExperimentEngine(workers=workers, use_cache=False)
    start = time.perf_counter()
    if config.fidelity == "fast":
        # Build every world bucket before the pool forks: children
        # inherit the warmed cache instead of rebuilding it per worker.
        warm_worlds(config.population)
    task_stream = (
        ExperimentTask(
            fn=run_fleet_chunk,
            args=(config, shard, lo, hi),
            label=f"fleet/s{shard}/{lo}-{hi}",
        )
        for shard, lo, hi in config.iter_chunks(shard_order=shard_order)
    )

    def fold(accumulator, payload, task):
        accumulator = accumulator.merge_payload(payload)
        if meter is not None:
            meter.update(payload)
        return accumulator

    accumulator, chunks = engine.run_fold(
        task_stream, fold, initial=FleetAccumulator(),
    )
    elapsed = time.perf_counter() - start
    return FleetResult(
        config=config,
        accumulator=accumulator,
        elapsed=elapsed,
        chunks=chunks,
        workers=engine.workers,
    )

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
    latency model, once per seed batch of homes (:func:`simulate_block`),
    which synthesis hands over as columns, not per-home specs.  About 23
    microseconds per home serially on a 2-CPU x86-64 host, a third of it
    synthesis.  Each home seeds two generators (in batches, see
    :func:`repro.sim.random.generators`) and draws its integers from
    raw words (:func:`repro.sim.random.raw_integers`); this is what
    makes million-home sweeps possible.
``full``
    The packet-level scenario simulation (speaker boot, TCP, BLE
    scans, the works) per home — seconds per home, for validating the
    reduced model on small fleets.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis.reporting import fmt_percent, render_table
from repro.core.decision import RETRY_BASE, RETRY_CAP
from repro.errors import WorkloadError
from repro.experiments.parallel import ExperimentEngine, ExperimentTask
from repro.experiments.synthesis import (
    FleetWorld,
    HomeBatch,
    HomeSpec,
    PopulationModel,
    fleet_world,
    warm_worlds,
)
from repro.obs.metrics import QuantileSketch
from repro.radio.propagation import BODY_OCCLUSION, SAMPLE_NOISE_SIGMA
from repro.sim.random import generator, generators, raw_integers

FIDELITIES = ("fast", "full")

# Retry policy the fleet guard runs (the resilience sweep's winner):
# up to two re-pushes on the guard's own backoff schedule.
PUSH_ATTEMPTS = 3

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

# Fast homes per seeding batch, each one block of the kernel: a batch's
# seeding, decoding and array work after the draws are paid once for
# all of its homes.  Larger batches save little more (about 28 us a
# home at 128, 25 at 1,024), while a block's working set grows with its
# size; at 128 it stays about flat whatever a chunk's size.
SEED_BATCH = 128


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
    scan: np.ndarray,
    rtt: np.ndarray,
    fails: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decision latency, timeout and retry count for each decision.

    Returns ``(latency_seconds, timeout_mask, retry_counts)`` from each
    decision's scan window, push round-trip and ``(decisions,
    PUSH_ATTEMPTS)`` attempt failures.  Each decision scans, then
    pushes up to :data:`PUSH_ATTEMPTS` times; a failed attempt costs one
    round-trip plus exponential backoff.  A decision whose every attempt
    fails is a timeout.  The guard blocks a timed-out command; this
    model still counts it as executed (ROADMAP item 1).
    """
    # Retries = failed attempts before the first success (0..ATTEMPTS-1).
    first_ok = np.argmin(fails, axis=1)  # index of first False
    timeout = fails.all(axis=1)
    retries = np.where(timeout, PUSH_ATTEMPTS - 1, first_ok)
    latency = scan + (retries + 1) * rtt + _BACKOFF_BY_RETRIES[retries]
    return latency, timeout, retries


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Where each segment of a flat concatenation begins."""
    return np.cumsum(sizes) - sizes


def _segments(sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(segment, position)`` of every element of a flat concatenation
    of segments with these sizes."""
    segment = np.repeat(np.arange(sizes.size), sizes)
    return segment, np.arange(segment.size) - np.repeat(_starts(sizes), sizes)


@dataclass
class HomeBlock:
    """The outcomes of a block of fast homes, one array entry per home.

    ``testbed`` indexes ``testbeds``; ``counts`` holds every
    :data:`COUNT_KEYS` counter but the latency total; ``latencies_us``
    lists the resolved-decision latencies home by home, and
    ``latency_home`` names each one's home.
    """

    testbeds: Tuple[str, ...]
    testbed: np.ndarray
    counts: Dict[str, np.ndarray]
    latencies_us: np.ndarray
    latency_home: np.ndarray


# Each scan window's low end and width, phone then watch.
_SCAN_LOW, _SCAN_WIDTH = zip(*[(lo, hi - lo) for lo, hi in (
    SCAN_WINDOW["smartphone"], SCAN_WINDOW["smartwatch"])])


def _home_draws(rng: np.random.Generator, head_words: int, normals: np.ndarray,
                scans: np.ndarray, tails: np.ndarray, attempts: np.ndarray,
                exact: Optional[Tuple[int, int, int, int]] = None):
    """One fast home's draws from its generator, in the order that
    defines the population: legit-point picks (the speaker's, then each
    extra owner's), away-point picks (extra owners', then every owner's
    per attack), uniforms (body block, then extra owners away),
    standard normals (legit noise, body loss, extra owners' noise,
    attack noise), then per decision a scan-window uniform, a push
    round-trip tail's standard exponential and, on a lossy network, a
    uniform per push attempt.

    The normals, scan uniforms, exponentials and attempt uniforms fill
    ``normals``, ``scans``, ``tails`` and ``attempts`` (empty for a
    loss-free home), the home's stretches of its block's arrays, which
    :func:`simulate_block` scales for the whole block at once.  Returns
    the head: the ``head_words`` raw words the picks and uniforms come
    from (the picks' words, then one a uniform); with ``exact =
    (picks, legit points, away picks, away points)`` it is ``(legit
    picks, away picks, uniforms)`` from numpy's own calls instead, for
    a home whose words numpy would have drawn differently.
    """
    if exact is None:
        head = rng.bit_generator.random_raw(head_words)
    else:
        picks, legit_points, away, away_points = exact
        head = (rng.integers(0, legit_points, size=picks),
                rng.integers(0, away_points, size=away), rng.random(picks))
    rng.standard_normal(out=normals)
    rng.random(out=scans)
    rng.standard_exponential(out=tails)
    if attempts.size:
        rng.random(out=attempts)
    return head


def _spans(sizes: np.ndarray) -> Tuple[List[int], List[int]]:
    """Where each segment of a flat concatenation begins and ends."""
    ends = np.cumsum(sizes).tolist()
    return [0] + ends[:-1], ends


def _run_seeds(seeds: List[int]) -> List[int]:
    """``[derive_seed(seed, "home.run") for seed in seeds]``: the same
    SHA-256 input, ``b"<seed>|home.run"``, and its digest bytes 4-8."""
    return [int.from_bytes(hashlib.sha256(b"%d|home.run" % seed).digest()[4:8], "big")
            for seed in seeds]


def _block_draws(seeds: List[int], legit_points: np.ndarray, away_points: np.ndarray,
                 n_picks: np.ndarray, n_away: np.ndarray, n_normals: np.ndarray,
                 decisions: np.ndarray, lossy: np.ndarray):
    """Each home's :func:`_home_draws` from its generator, seeded from
    ``seeds`` as one batch, as flat arrays: ``(picks, away_picks,
    uniforms, normals, scans, tails, attempts)``, each home one segment
    of each, and attempt rows for ``lossy`` homes only."""
    size = len(seeds)
    # A pick takes a 32-bit half-word, none among a single point.
    halves = n_picks * (legit_points > 1) + n_away * (away_points > 1)
    pick_words = (halves + 1) // 2
    head_words = pick_words + n_picks
    normals = np.empty(int(n_normals.sum()))
    scans = np.empty(int(decisions.sum()))
    tails = np.empty_like(scans)
    attempt_rows = decisions * lossy
    attempts = np.empty((int(attempt_rows.sum()), PUSH_ATTEMPTS))
    spans = [*_spans(n_normals), *_spans(decisions), *_spans(attempt_rows)]
    heads = [
        _home_draws(rng, words, normals[n0:n1], scans[d0:d1], tails[d0:d1], attempts[a0:a1])
        for rng, words, n0, n1, d0, d1, a0, a1 in zip(
            generators(seeds), head_words.tolist(), *spans)]

    # -- the heads: each home's pick words, then its uniform words --
    words = np.concatenate(heads)
    del heads
    is_pick = np.repeat(np.tile([True, False], size),
                        np.column_stack([pick_words, n_picks]).ravel())
    uniforms = (words[~is_pick] >> np.uint64(11)) * 2.0**-53  # next_double
    words = words[is_pick]
    # Per home: its legit picks, its away picks, and a bound-2 pick if it
    # would leave half a word over.
    counts = np.column_stack([n_picks, n_away, halves % 2])
    bounds = np.column_stack([legit_points, away_points, np.full_like(n_picks, 2)])
    values, retried = raw_integers(words, np.repeat(bounds.ravel(), counts.ravel()))
    del words
    kind = np.repeat(np.tile(np.arange(3, dtype=np.int8), size), counts.ravel())
    picks = values[kind == 0]
    away_picks = values[kind == 1]
    del values, kind
    # Where numpy would have drawn another half-word (at most about one
    # pick in 10**8), the home is drawn again with numpy's own calls.
    pick_start = _starts(n_picks)
    away_start = _starts(n_away)
    redrawn = np.searchsorted(np.cumsum(counts.sum(axis=1)), np.flatnonzero(retried),
                              side="right")
    n0, n1, d0, d1, a0, a1 = spans
    for h in set(redrawn.tolist()):
        legit, away, uniform = _home_draws(
            generator(seeds[h]), 0, normals[n0[h]:n1[h]], scans[d0[h]:d1[h]],
            tails[d0[h]:d1[h]], attempts[a0[h]:a1[h]],
            exact=(int(n_picks[h]), int(legit_points[h]), int(n_away[h]), int(away_points[h])))
        picks[pick_start[h]:pick_start[h] + legit.size] = legit
        away_picks[away_start[h]:away_start[h] + away.size] = away
        uniforms[pick_start[h]:pick_start[h] + uniform.size] = uniform
    return picks, away_picks, uniforms, normals, scans, tails, attempts


def _block_worlds(homes: HomeBatch) -> Tuple[List[FleetWorld], np.ndarray]:
    """The worlds of a batch's ``(testbed, deployment, plan scale)``
    buckets, and each home's place among them."""
    deployments = int(homes.deployment.max()) + 1
    scales = len(homes.plan_scales)
    bucket = (homes.testbed * deployments + homes.deployment) * scales + homes.slot
    present = np.bincount(bucket) > 0
    world = (np.cumsum(present) - 1)[bucket]
    worlds = []
    for key in np.flatnonzero(present).tolist():
        rest, slot = divmod(key, scales)
        testbed, deployment = divmod(rest, deployments)
        worlds.append(fleet_world(homes.testbeds[testbed], deployment, homes.plan_scales[slot]))
    return worlds, world


def simulate_block(homes: HomeBatch) -> HomeBlock:
    """The reduced-order home model (``fast`` fidelity), for a batch of
    homes.

    Every RSSI figure comes from the real propagation substrate
    (:func:`~repro.experiments.synthesis.fleet_world` caches the
    per-bucket surfaces); this function adds each home's occupancy,
    noise, and decision policy on top.  Each home draws from its own
    generator in a fixed, documented order (:func:`_home_draws`), which
    defines the population; everything else runs once for the batch on
    flat arrays, each home one segment of them.
    """
    size = len(homes)
    worlds, world = _block_worlds(homes)
    # Every world's mean surfaces, end to end; a home's picks index its
    # own world's stretch of them.
    legit_table = np.concatenate([w.legit_means for w in worlds])
    away_table = np.concatenate([w.away_means for w in worlds])
    world_legit = np.array([w.legit_means.size for w in worlds])
    world_away = np.array([w.away_means.size for w in worlds])
    legit_base = _starts(world_legit)[world]
    away_base = _starts(world_away)[world]
    threshold = np.array([w.threshold_base for w in worlds])[world] - homes.threshold_margin
    sigma = np.where(homes.watch, SAMPLE_NOISE_SIGMA + WATCH_EXTRA_NOISE, SAMPLE_NOISE_SIGMA)
    n_legit, n_attack = homes.legit_commands, homes.attacks
    owners = homes.owner_count
    extra = owners - 1
    # Legit picks and uniforms have the same per-home sizes.
    n_picks = owners * n_legit
    n_away = extra * n_legit + owners * n_attack
    n_normals = (2 + extra) * n_legit + owners * n_attack
    decisions = n_legit + n_attack
    pick_start = _starts(n_picks)
    away_start = _starts(n_away)
    normal_start = _starts(n_normals)
    picks, away_picks, uniforms, normals, scans, tails, attempts = _block_draws(
        _run_seeds(homes.seed.tolist()),
        world_legit[world], world_away[world], n_picks, n_away, n_normals, decisions,
        homes.push_loss > 0.0)

    # -- legitimate episodes: the speaking owner is at a legit point --
    home, j = _segments(n_legit)
    at = pick_start[home] + j
    noise = normal_start[home] + j
    samples = legit_table[legit_base[home] + picks[at]] + sigma[home] * normals[noise]
    blocked_mask = uniforms[at] < homes.body_block_fraction[home]
    body_loss = np.abs(BODY_OCCLUSION
                       + (BODY_OCCLUSION / 2) * normals[noise + n_legit[home]])
    samples -= blocked_mask * body_loss
    allow = samples >= threshold[home]
    # Extra owners wander; any device above threshold also grants.
    home, k = _segments(extra * n_legit)
    at = pick_start[home] + n_legit[home] + k
    away = uniforms[at] < homes.away_fraction[home]
    other = np.where(away, away_table[away_base[home] + away_picks[away_start[home] + k]],
                     legit_table[legit_base[home] + picks[at]])
    other += sigma[home] * normals[normal_start[home] + 2 * n_legit[home] + k]
    command = _starts(n_legit)[home] + k % n_legit[home]
    allow[command[other >= threshold[home]]] = True

    # -- attack episodes: the campaign fires while every owner is away --
    home, k = _segments(owners * n_attack)
    asamples = (away_table[away_base[home] + away_picks[
        away_start[home] + extra[home] * n_legit[home] + k]]
        + sigma[home] * normals[normal_start[home] + (2 + extra[home]) * n_legit[home] + k])
    attack = _starts(n_attack)[home] + k % n_attack[home]
    attack_exposed = np.zeros(int(n_attack.sum()), dtype=bool)
    attack_exposed[attack[asamples >= threshold[home]]] = True
    # A block's peak memory is a fleet worker's: the episodes' arrays go
    # before the decision pipeline builds its own.
    del picks, away_picks, uniforms, normals, at, noise, samples, blocked_mask, body_loss
    del away, other, command, asamples, attack

    # -- decision pipeline: scans, pushes, retries, timeouts --
    home, k = _segments(decisions)
    watch = homes.watch[home]
    # uniform(low, high, n) and exponential(PUSH_RTT_TAIL, n), as numpy
    # computes them from the bare draws, plus the round-trip base.
    scans *= np.where(watch, _SCAN_WIDTH[1], _SCAN_WIDTH[0])
    scans += np.where(watch, _SCAN_LOW[1], _SCAN_LOW[0])
    tails *= PUSH_RTT_TAIL
    tails += PUSH_RTT_BASE
    # Loss-free homes (most of the fleet) drew no attempt uniforms:
    # their first push always lands.
    fails = np.zeros((home.size, PUSH_ATTEMPTS), dtype=bool)
    push_loss = homes.push_loss[home]
    lossy = push_loss > 0.0
    fails[lossy] = attempts < push_loss[lossy, None]
    latency, timeout, retries = _latency_model(scans, tails, fails)
    legit = k < n_legit[home]

    def per_home(owner: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return np.bincount(owner[mask], minlength=size)

    # Legit: a resolved below-threshold reading is a false block; a
    # timeout falls open (executes), costing availability, not a block.
    false_block = ~timeout[legit] & ~allow
    # Attack: blocked only when resolved with every device below the
    # threshold; a leak-zone reading or a timeout lets it execute.
    attack_blocked = ~timeout[~legit] & ~attack_exposed
    resolved = ~timeout
    return HomeBlock(
        testbeds=homes.testbeds,
        testbed=homes.testbed,
        counts={
            "homes": np.ones(size, dtype=np.int64),
            "homes_attacked": (n_attack > 0).astype(np.int64),
            "legit_commands": n_legit,
            "false_blocks": per_home(home[legit], false_block),
            "attacks": n_attack,
            "attacks_blocked": per_home(home[~legit], attack_blocked),
            "decisions": decisions,
            "timeouts": per_home(home, timeout),
            "retries": np.bincount(home, weights=retries, minlength=size).astype(np.int64),
        },
        latencies_us=np.rint(latency[resolved] * 1e6).astype(np.int64),
        latency_home=home[resolved],
    )


def simulate_home(spec: HomeSpec) -> HomeSummary:
    """One home of the reduced-order model: a one-home
    :func:`simulate_block`."""
    block = simulate_block(HomeBatch.of(spec))
    counts = {key: int(values[0]) for key, values in block.counts.items()}
    return HomeSummary(
        testbed=spec.testbed,
        attacked=spec.attacks > 0,
        legit=counts["legit_commands"],
        false_blocks=counts["false_blocks"],
        attacks=counts["attacks"],
        attacks_blocked=counts["attacks_blocked"],
        decisions=counts["decisions"],
        timeouts=counts["timeouts"],
        retries=counts["retries"],
        latencies_us=block.latencies_us,
    )


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
        self.sketches[summary.testbed].add(summary.latencies_us)

    def add_block(self, block: HomeBlock) -> None:
        # Every count's per-testbed sums in one product: the counts, one
        # row a key, against the homes' testbed one-hot.
        onehot = block.testbed[:, None] == np.arange(len(block.testbeds))
        sums = (np.array(list(block.counts.values()), dtype=np.int64)
                @ onehot.astype(np.int64)).T.tolist()
        latency_testbed = block.testbed[block.latency_home]
        for code in np.flatnonzero(onehot.any(axis=0)).tolist():
            name = block.testbeds[code]
            counts = self._bucket(name)
            for key, total in zip(block.counts, sums[code]):
                counts[key] += total
            latencies_us = block.latencies_us[latency_testbed == code]
            counts["latency_total_us"] += int(latencies_us.sum())
            self.sketches[name].add(latencies_us)

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

    def iter_chunks(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(shard, lo, hi)`` chunk bounds, streaming."""
        chunk = self.chunk_size
        for shard in range(self.shards):
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
    population = config.population
    if config.fidelity == "fast":
        for batch_lo in range(lo, hi, SEED_BATCH):
            accumulator.add_block(simulate_block(population.homes(
                config.seed, shard, batch_lo, min(batch_lo + SEED_BATCH, hi))))
    else:
        start_index = config.shard_start(shard)
        # simulate_home_full is looked up per home so that a wrapper
        # installed on the module (e.g. a benchmark audit) sees every home.
        for offset in range(lo, hi):
            accumulator.add_home(simulate_home_full(
                population.home(config.seed, shard, offset, start_index + offset)))
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
    workers: int  # processes that ran the chunks: 1 when no pool started

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
                f"(workers={self.workers}, chunk={self.config.chunk_size}, "
                f"{self.chunks} task{'' if self.chunks == 1 else 's'})")


def run_fleet(
    config: FleetConfig,
    workers: int = 1,
    progress: bool = False,
) -> FleetResult:
    """Stream a fleet through the experiment engine.

    Chunk payloads fold as futures complete, with at most
    ``4 * workers`` tasks in flight, so memory stays bounded at any
    fleet size.

    ``progress=True`` attaches a :class:`FleetProgressMeter` (counted
    homes done / homes-per-sec / ETA on stderr).
    """
    meter = FleetProgressMeter(config.homes) if progress else None
    engine = ExperimentEngine(workers=workers)
    start = time.perf_counter()
    if config.fidelity == "fast":
        # Build every world bucket before the pool forks: children
        # inherit the warmed cache instead of rebuilding it per worker.
        # A forked worker still imports numpy.random, and runs the numpy
        # probe, on its first chunk (about 6 ms).  Importing it here
        # would spare each worker that, but would add about 1.8 MB to a
        # pooled run's parent, which never draws.
        warm_worlds(config.population)
    task_stream = (
        ExperimentTask(
            fn=run_fleet_chunk,
            args=(config, shard, lo, hi),
            label=f"fleet/s{shard}/{lo}-{hi}",
        )
        for shard, lo, hi in config.iter_chunks()
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
        workers=engine.width,
    )

"""Home synthesis for fleet-scale simulation.

The paper evaluates VoiceGuard on three physical testbeds.  A city
does not contain three homes; it contains hundreds of thousands of
*variations* of them.  This module samples that population: every home
is a :class:`HomeSpec` — a small, picklable, purely-parametric
description drawn deterministically from a base seed via
:func:`repro.experiments.parallel.derive_seed` — covering:

* **floor-plan jitter** — the base testbed geometry scaled in x/y by a
  factor drawn from a small *quantized* set.  Quantization is a
  deliberate design point: workers memoize the expensive world build
  (floor plan, wall array, propagation fields, calibration surface)
  per ``(testbed, deployment, scale)`` bucket, so a million homes
  reuse a few dozen worlds while still spanning small-apartment to
  large-house geometry;
* **device mixes** — owner counts and smartphone/smartwatch carry;
* **occupancy schedules** — how many commands a home issues and how
  often its owners are away from the speaker's room;
* **attack prevalence** — which homes a campaign actually reaches,
  and with how many payloads;
* **per-home RF/operational diversity** — calibration-margin jitter
  and home-network push-loss quality.

Seed derivation is *sharded*: home ``offset`` of shard ``s`` draws its
seed from ``(base, "fleet.home", s, offset)``, so a shard's homes are
identical no matter which worker runs them, in what order, or in which
chunking — the property the fleet determinism tests pin down.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.experiments.parallel import derive_seed, derive_seeds
from repro.radio.floorplan import FLOOR_HEIGHT, Door, FloorPlan, Room, SlabZone
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel
from repro.radio.testbeds import Testbed, WalkRoute, testbed_by_name
from repro.sim.random import generator, generators, raw_integers

# Share of each base testbed in the synthesized population.
DEFAULT_TESTBED_MIX: Tuple[Tuple[str, float], ...] = (
    ("house", 0.40),
    ("apartment", 0.35),
    ("office", 0.25),
)

# Quantized floor-plan jitter factors (see module docstring).
DEFAULT_PLAN_SCALES: Tuple[float, ...] = (0.85, 0.925, 1.0, 1.075, 1.15)

# Home-network push quality tiers: most homes are healthy, a fifth are
# mediocre, a tenth are poor (matching the resilience sweep's axis).
PUSH_LOSS_TIERS: Tuple[float, ...] = (0.0, 0.02, 0.08)
PUSH_LOSS_WEIGHTS: Tuple[float, ...] = (0.7, 0.2, 0.1)


def _edges(weights) -> Tuple[float, ...]:
    """The normalized cumulative weights of an inverse-CDF pick, bar
    the last: a draw picks the first entry whose cumulative weight
    exceeds it, else the last."""
    total = float(sum(weights))
    running = 0.0
    out = []
    for weight in weights:
        running += weight / total
        out.append(running)
    return tuple(out[:-1])


_LOSS_EDGES = _edges(PUSH_LOSS_WEIGHTS)


def _pick(edges: Tuple[float, ...], draw):
    """The entry index each inverse-CDF ``draw`` picks; ``draw`` is a
    float or an array of them."""
    if isinstance(draw, float):
        return bisect.bisect_right(edges, draw)
    return np.searchsorted(edges, draw, side="right")


def _lookup(values: Tuple, code):
    """``values[code]`` for an int ``code`` or an array of them."""
    return values[code] if isinstance(code, int) else np.asarray(values)[code]


@dataclass(frozen=True)
class HomeSpec:
    """One synthesized home, fully determined by its parameters.

    Everything a worker needs to simulate the home is here (plus the
    shared world cache); the spec is tiny and picklable, and two specs
    with the same fields produce byte-identical outcomes.
    """

    index: int            # global home index in the fleet
    shard: int
    seed: int             # derived per-home seed (all in-home draws)
    testbed: str
    deployment: int
    plan_scale: float
    owner_count: int
    device_kind: str      # "smartphone" | "smartwatch"
    legit_commands: int
    attacks: int          # 0 = the campaign never reached this home
    away_fraction: float  # share of time owners spend out of the room
    body_block_fraction: float
    push_loss: float
    threshold_margin: float  # calibration jitter (units of RSSI)


@dataclass(frozen=True)
class HomeBatch:
    """Homes as columns: entry ``i`` of each array is home ``i``, with
    :class:`HomeSpec`'s meaning.  ``testbed`` indexes ``testbeds``,
    ``slot`` indexes ``plan_scales``, and ``watch`` marks the homes
    whose owners carry a smartwatch, not a smartphone."""

    testbeds: Tuple[str, ...]
    plan_scales: Tuple[float, ...]
    seed: np.ndarray
    testbed: np.ndarray
    deployment: np.ndarray
    slot: np.ndarray
    owner_count: np.ndarray
    watch: np.ndarray
    legit_commands: np.ndarray
    attacks: np.ndarray
    away_fraction: np.ndarray
    body_block_fraction: np.ndarray
    push_loss: np.ndarray
    threshold_margin: np.ndarray

    def __len__(self) -> int:
        return self.seed.size

    @classmethod
    def of(cls, spec: HomeSpec) -> "HomeBatch":
        """The one-home batch of ``spec``."""
        return cls(
            testbeds=(spec.testbed,), plan_scales=(spec.plan_scale,),
            seed=np.array([spec.seed], dtype=np.uint64),
            testbed=np.zeros(1, dtype=np.int64),
            deployment=np.array([spec.deployment]),
            slot=np.zeros(1, dtype=np.int64),
            owner_count=np.array([spec.owner_count]),
            watch=np.array([spec.device_kind == "smartwatch"]),
            legit_commands=np.array([spec.legit_commands]),
            attacks=np.array([spec.attacks]),
            away_fraction=np.array([spec.away_fraction]),
            body_block_fraction=np.array([spec.body_block_fraction]),
            push_loss=np.array([spec.push_loss]),
            threshold_margin=np.array([spec.threshold_margin]),
        )


@dataclass(frozen=True)
class PopulationModel:
    """Sampling knobs for the synthesized home population."""

    testbed_mix: Tuple[Tuple[str, float], ...] = DEFAULT_TESTBED_MIX
    plan_scales: Tuple[float, ...] = DEFAULT_PLAN_SCALES
    attack_prevalence: float = 0.25
    legit_commands_mean: float = 20.0
    attacks_mean: float = 5.0

    def __post_init__(self) -> None:
        if not self.testbed_mix:
            raise WorkloadError("testbed mix must name at least one testbed")
        for name, weight in self.testbed_mix:
            if not (math.isfinite(weight) and weight >= 0):
                raise WorkloadError(
                    f"testbed mix weight for {name!r} must be finite and >= 0, got {weight!r}")
        total = sum(weight for _, weight in self.testbed_mix)
        if total <= 0:
            raise WorkloadError("testbed mix weights must sum to a positive value")
        if not self.plan_scales:
            raise WorkloadError("plan scales must name at least one scale")
        for scale in self.plan_scales:
            if not (math.isfinite(scale) and scale > 0):
                raise WorkloadError(f"plan scale must be finite and > 0, got {scale!r}")
        if not 0.0 <= self.attack_prevalence <= 1.0:
            raise WorkloadError(
                f"attack prevalence must be in [0, 1], got {self.attack_prevalence!r}"
            )
        for knob in ("legit_commands_mean", "attacks_mean"):
            mean = getattr(self, knob)
            if not (math.isfinite(mean) and mean >= 0):
                raise WorkloadError(f"{knob} must be finite and >= 0, got {mean!r}")
        for name, _ in self.testbed_mix:
            testbed_by_name(name)  # raises on unknown names, at config time
        object.__setattr__(self, "_mix_edges", _edges([weight for _, weight in self.testbed_mix]))
        object.__setattr__(self, "_testbeds", tuple(name for name, _ in self.testbed_mix))
        object.__setattr__(self, "_office", tuple(name == "office" for name in self._testbeds))
        # The head's integers: deployment, plan-scale slot, extra owners,
        # and a bound-2 pad where they would leave half a word over.
        slots = len(self.plan_scales)
        object.__setattr__(self, "_head_bounds", (2, slots, 3, 2) if slots > 1 else (2, 1, 3))

    def home(self, base_seed: int, shard: int, offset: int, index: int) -> HomeSpec:
        """Synthesize home ``offset`` of ``shard`` (global ``index``), with
        numpy's own calls: for one home they cost less than decoding its
        raw words.  :meth:`_columns` maps its draws as plain numbers."""
        seed = derive_seed(base_seed, "fleet.home", shard, offset)
        (u, head), legit, attacks, normal = self._draws(generator(seed), exact=True)
        testbed, deployment, slot, owner_count, watch, *rest = self._columns(
            u, head, legit, attacks, normal)
        return HomeSpec(index, shard, seed, self._testbeds[testbed], deployment,
                        float(self.plan_scales[slot]), owner_count,
                        "smartwatch" if watch else "smartphone", *rest)

    def homes(self, base_seed: int, shard: int, lo: int, hi: int) -> HomeBatch:
        """Homes ``lo..hi`` of ``shard`` as one batch, each equal to
        :meth:`home`'s: their generators seeded as one batch, their raw
        words decoded and mapped once for the batch."""
        seeds = derive_seeds(base_seed, "fleet.home", shard, last=range(lo, hi))
        heads, legit, attacks, normals = (
            list(column) for column in zip(*[self._draws(rng) for rng in generators(seeds)]))
        bounds = self._head_bounds
        words = np.concatenate(heads).reshape(len(seeds), -1)
        values, retried = raw_integers(words[:, 6:].ravel(), np.tile(bounds, len(seeds)))
        ints = values.reshape(len(seeds), len(bounds))[:, :3]
        u = (words[:, :6] >> np.uint64(11)) * 2.0**-53  # next_double
        # Where numpy would have drawn another half-word (at most about
        # one home in 10**9), the home is drawn again with numpy's calls.
        for i in np.flatnonzero(retried.reshape(len(seeds), -1).any(axis=1)).tolist():
            (u[i], ints[i]), legit[i], attacks[i], normals[i] = self._draws(
                generator(seeds[i]), exact=True)
        return HomeBatch(
            self._testbeds, tuple(self.plan_scales), np.array(seeds, dtype=np.uint64),
            *self._columns(u.T, ints.T, np.array(legit), np.array(attacks), np.array(normals)))

    def _draws(self, rng: np.random.Generator, exact: bool = False):
        """A home's draws from its generator, ``(head, legit, attacks,
        normal)``.

        The draw order below is part of the population's definition:
        reordering it would re-deal every home in every fleet.  Draws
        come in a fixed-size head (six uniforms, then three integers:
        deployment, plan-scale slot, extra owners) and a variable-size
        tail: the legit command count's Poisson draw, the attack count's
        for a home the campaign reaches (else 0, undrawn), and the
        calibration margin's standard normal.  Unused entries are drawn
        anyway to keep every home's stream aligned.

        The head is one ``random_raw`` call: the uniforms' words, then
        the words of the integers, which :meth:`homes` decodes for its
        whole batch (a one-slot plan-scale draw takes no half-word, so
        one word holds the other two).  With ``exact``, numpy's own
        calls draw the head instead, as ``(uniforms, integers)``: for a
        single home, and for a home whose words numpy would have drawn
        differently.
        """
        # uniforms: [mix pick, watch pick, away, body-block, attacked, loss tier]
        if exact:
            u = rng.random(6).tolist()
            head = (u, [int(rng.integers(0, bound)) for bound in self._head_bounds[:3]])
            attacked = u[4] < self.attack_prevalence
        else:
            head = rng.bit_generator.random_raw(6 + len(self._head_bounds) // 2)
            attacked = (int(head[4]) >> 11) * 2.0**-53 < self.attack_prevalence
        legit = rng.poisson(self.legit_commands_mean)
        attacks = rng.poisson(self.attacks_mean) if attacked else 0
        return head, legit, attacks, rng.standard_normal()

    def _columns(self, u, ints, legit, attacks, normal) -> Tuple:
        """Homes from their decoded draws: :class:`HomeBatch`'s columns
        after ``seed``, in its field order (which is :class:`HomeSpec`'s
        from ``testbed`` on).  ``u`` holds the six uniforms, ``ints`` the
        deployment, plan-scale slot and extra owners, and the rest are
        :meth:`_draws`' tail.  Each is an array with an entry per home
        or, for :meth:`home`, one plain number; the arithmetic below,
        :func:`_pick` and :func:`_lookup` serve both."""
        # 1. Base testbed, by mix weight.
        testbed = _pick(self._mix_edges, u[0])
        office = _lookup(self._office, testbed)
        deployment, slot, extra_owners = ints
        return (
            testbed, deployment, slot,
            # 2. Device mix: the office population wears watches (the
            #    paper's setup); homes carry phones, with a watch minority.
            1 + extra_owners * (1 - office),
            office | (u[1] < 0.15),
            # 3. Occupancy schedule: at least one command (a Poisson
            #    draw is never negative), attacks where the campaign hit.
            legit + (legit == 0),
            (attacks + (attacks == 0)) * (u[4] < self.attack_prevalence),
            0.25 + 0.55 * u[2],
            0.2 + 0.4 * u[3],
            # 4. Operational diversity: push loss, calibration margin
            #    (normal(0.0, 0.5)).
            _lookup(PUSH_LOSS_TIERS, _pick(_LOSS_EDGES, u[5])),
            0.0 + 0.5 * normal,
        )


# ---------------------------------------------------------------------------
# Floor-plan jitter
# ---------------------------------------------------------------------------

def _scale_point(point: Point, factor: float) -> Point:
    # z encodes which storey a point is on; jitter stretches rooms in
    # plan view only, so storey membership (and slab crossings) hold.
    return Point(point.x * factor, point.y * factor, point.z)


def scale_testbed(name: str, factor: float) -> Testbed:
    """Rebuild a base testbed with its plan-view geometry scaled.

    Every x/y coordinate — rooms, walls, measurement points, slab
    zones, walking routes, speaker locations, the stair region — is
    multiplied by ``factor``; z (storeys) is untouched and door
    openings are fractional, so the scaled plan validates with the
    same topology, room names, and point numbering as the original.
    """
    base = testbed_by_name(name)
    if factor == 1.0:
        return base
    if factor <= 0.0:
        raise WorkloadError(f"plan scale must be positive, got {factor!r}")

    plan = FloorPlan(f"{base.plan.name} x{factor:g}", base.plan.floor_count)
    for room in base.plan.rooms.values():
        plan.add_room(Room(
            name=room.name,
            x0=room.x0 * factor, y0=room.y0 * factor,
            x1=room.x1 * factor, y1=room.y1 * factor,
            floor=room.floor, height=room.height,
        ))
    for wall in base.plan.walls:
        plan.add_wall(
            (wall.start[0] * factor, wall.start[1] * factor),
            (wall.end[0] * factor, wall.end[1] * factor),
            floor=int(round(wall.z_low / FLOOR_HEIGHT)),
            doors=tuple(Door(d.u_start, d.u_end) for d in wall.doors),
        )
    for zone in base.plan.slab_zones:
        plan.add_slab_zone(SlabZone(
            x0=zone.x0 * factor, y0=zone.y0 * factor,
            x1=zone.x1 * factor, y1=zone.y1 * factor,
            slab_height=zone.slab_height, attenuation=zone.attenuation,
        ))
    # Re-add points in numbering order so numbers (and the paper's
    # leak-cluster references) line up with the base plan.
    for number in sorted(base.plan.points):
        mp = base.plan.points[number]
        plan.add_points(mp.room_name, [_scale_point(mp.point, factor)])
    plan.validate()

    routes = {
        route_name: WalkRoute(
            name=route.name,
            waypoints=[_scale_point(p, factor) for p in route.waypoints],
            duration=route.duration,
        )
        for route_name, route in base.routes.items()
    }
    stair_region = None
    if base.stair_region is not None:
        x0, y0, x1, y1 = base.stair_region
        stair_region = (x0 * factor, y0 * factor, x1 * factor, y1 * factor)

    return Testbed(
        name=base.name,
        plan=plan,
        speaker_locations=[_scale_point(p, factor) for p in base.speaker_locations],
        speaker_rooms=list(base.speaker_rooms),
        routes=routes,
        line_of_sight_points={k: list(v) for k, v in base.line_of_sight_points.items()},
        stair_region=stair_region,
    )


# ---------------------------------------------------------------------------
# Worker-side world cache
# ---------------------------------------------------------------------------

# Threshold sits this far under the weakest legitimate spot's mean
# RSSI before per-home calibration jitter — the same "legit points must
# pass" contract the calibrator establishes on the real testbeds.
CALIBRATION_HEADROOM = 0.75


@dataclass
class FleetWorld:
    """The shared, expensive part of one ``(testbed, deployment, scale)``
    bucket: scaled geometry, propagation model, and the mean-RSSI
    surfaces every home in the bucket samples around."""

    testbed: Testbed
    model: PropagationModel
    speaker: Point
    legit_numbers: List[int] = field(default_factory=list)
    away_numbers: List[int] = field(default_factory=list)
    legit_means: np.ndarray = field(default_factory=lambda: np.empty(0))
    away_means: np.ndarray = field(default_factory=lambda: np.empty(0))
    threshold_base: float = 0.0


_WORLD_CACHE: Dict[Tuple[str, int, float], FleetWorld] = {}


def fleet_world(testbed_name: str, deployment: int, plan_scale: float) -> FleetWorld:
    """Build (or fetch) the shared world for one jitter bucket.

    The model seed derives from the bucket alone, so a bucket's static
    shadowing field is identical across workers and runs; per-home
    variation rides on top as sample noise, occupancy, and calibration
    jitter from the home's own seed.
    """
    key = (testbed_name, int(deployment), float(plan_scale))
    world = _WORLD_CACHE.get(key)
    if world is not None:
        return world

    testbed = scale_testbed(testbed_name, plan_scale)
    model = PropagationModel(
        testbed.plan,
        seed=derive_seed(0, "fleet.world", testbed_name, deployment,
                         f"{plan_scale:.6f}"),
    )
    speaker = testbed.speaker_point(deployment)
    legit_numbers = testbed.legitimate_points(deployment)
    all_numbers = sorted(testbed.plan.points)
    legit_set = set(legit_numbers)
    away_numbers = [n for n in all_numbers if n not in legit_set]

    legit_points = [testbed.device_point(n) for n in legit_numbers]
    away_points = [testbed.device_point(n) for n in away_numbers]
    legit_means = model.mean_rssi_many(speaker, legit_points)
    away_means = model.mean_rssi_many(speaker, away_points)

    world = FleetWorld(
        testbed=testbed,
        model=model,
        speaker=speaker,
        legit_numbers=list(legit_numbers),
        away_numbers=away_numbers,
        legit_means=np.asarray(legit_means, dtype=np.float64),
        away_means=np.asarray(away_means, dtype=np.float64),
        threshold_base=float(np.min(legit_means)) - CALIBRATION_HEADROOM,
    )
    _WORLD_CACHE[key] = world
    return world


def warm_worlds(population: "PopulationModel") -> int:
    """Pre-build every world bucket the population can reach.

    Called in the parent before the pool spins up: on fork platforms
    the children inherit the warmed cache for free, instead of each
    worker rebuilding a few dozen propagation surfaces on first use.
    Idempotent; returns the bucket count.
    """
    for name, _ in population.testbed_mix:
        for deployment in (0, 1):
            for scale in population.plan_scales:
                fleet_world(name, deployment, scale)
    return len(population.testbed_mix) * 2 * len(population.plan_scales)

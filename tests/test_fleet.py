"""Fleet simulation tests: sharded synthesis determinism, floor-plan
jitter geometry, byte-identical fleet tables across worker counts /
chunk sizes / shard orders, reducer associativity,
the constant-memory guarantee of the streaming fold, and the raw-word
draws of synthesis and the fast kernel against numpy's own calls."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.experiments import fleet, synthesis
from repro.experiments.fleet import (
    COUNT_KEYS,
    SEED_BATCH,
    FleetAccumulator,
    FleetConfig,
    FleetResult,
    run_fleet,
    run_fleet_chunk,
    simulate_block,
    simulate_home,
)
from repro.experiments.parallel import derive_seed
from repro.experiments.synthesis import (
    DEFAULT_PLAN_SCALES,
    PUSH_LOSS_TIERS,
    PUSH_LOSS_WEIGHTS,
    HomeSpec,
    PopulationModel,
    fleet_world,
    scale_testbed,
    warm_worlds,
)
from repro.obs.metrics import MetricsRegistry, QuantileSketch, merge_snapshots
from repro.sim import random as random_module
# Aliased: a module-level name starting with "test" would be collected
# by pytest as a test item.
from repro.radio.testbeds import testbed_by_name as build_testbed


@pytest.fixture(scope="module")
def small_fleet():
    return FleetConfig(homes=240, shards=4, seed=11, chunk_size=32)


# ---------------------------------------------------------------------------
# Home synthesis
# ---------------------------------------------------------------------------

def by_weight(pairs, draw):
    """The value whose cumulative normalized weight first exceeds ``draw``."""
    pairs = list(pairs)
    total = float(sum(weight for _, weight in pairs))
    running = 0.0
    for value, weight in pairs:
        running += weight / total
        if draw < running:
            return value
    return pairs[-1][0]


def numpy_home(pop: PopulationModel, base_seed: int, shard: int, offset: int) -> HomeSpec:
    """``pop.home(base_seed, shard, offset, offset)`` drawn with numpy's
    own calls: the reference for synthesis's raw-word head."""
    seed = derive_seed(base_seed, "fleet.home", shard, offset)
    rng = np.random.default_rng(seed)
    u = rng.random(6)
    deployment = int(rng.integers(0, 2))
    plan_scale = float(pop.plan_scales[rng.integers(0, len(pop.plan_scales))])
    extra_owners = int(rng.integers(0, 3))
    testbed = by_weight(pop.testbed_mix, u[0])
    office = testbed == "office"
    legit_commands = max(1, int(rng.poisson(pop.legit_commands_mean)))
    attacks = (max(1, int(rng.poisson(pop.attacks_mean)))
               if u[4] < pop.attack_prevalence else 0)
    return HomeSpec(
        index=offset, shard=shard, seed=seed, testbed=testbed, deployment=deployment,
        plan_scale=plan_scale, owner_count=1 if office else 1 + extra_owners,
        device_kind="smartwatch" if office or u[1] < 0.15 else "smartphone",
        legit_commands=legit_commands, attacks=attacks,
        away_fraction=0.25 + 0.55 * float(u[2]),
        body_block_fraction=0.2 + 0.4 * float(u[3]),
        push_loss=by_weight(zip(PUSH_LOSS_TIERS, PUSH_LOSS_WEIGHTS), u[5]),
        threshold_margin=float(rng.normal(0.0, 0.5)))


def as_specs(batch, shard: int, lo: int):
    """A :class:`HomeBatch`'s rows as the specs ``home(base, shard,
    offset, offset)`` builds, offsets from ``lo`` on."""
    return [HomeSpec(
        index=lo + i, shard=shard, seed=int(batch.seed[i]),
        testbed=batch.testbeds[batch.testbed[i]], deployment=int(batch.deployment[i]),
        plan_scale=float(batch.plan_scales[batch.slot[i]]),
        owner_count=int(batch.owner_count[i]),
        device_kind="smartwatch" if batch.watch[i] else "smartphone",
        legit_commands=int(batch.legit_commands[i]), attacks=int(batch.attacks[i]),
        away_fraction=float(batch.away_fraction[i]),
        body_block_fraction=float(batch.body_block_fraction[i]),
        push_loss=float(batch.push_loss[i]),
        threshold_margin=float(batch.threshold_margin[i])) for i in range(len(batch))]


def always_retried(monkeypatch, module):
    """Make ``module``'s raw-word integers report a numpy retry on every
    draw, and zeros for values, so every home takes the exact path and
    keeps nothing of the raw one; returns the seeds that path built
    generators for."""
    real_integers, real_generator = module.raw_integers, module.generator
    seeded = []

    def raw_integers(words, bounds):
        values, retried = real_integers(words, bounds)
        return np.zeros_like(values), np.ones_like(retried)

    def generator(seed):
        seeded.append(seed)
        return real_generator(seed)

    monkeypatch.setattr(module, "raw_integers", raw_integers)
    monkeypatch.setattr(module, "generator", generator)
    return seeded


class TestSynthesis:
    def test_spec_depends_only_on_shard_and_offset(self):
        pop = PopulationModel()
        first = pop.home(3, 2, 17, index=100)
        second = pop.home(3, 2, 17, index=999)
        assert first.seed == second.seed
        assert first.testbed == second.testbed
        assert first.legit_commands == second.legit_commands
        assert first.threshold_margin == second.threshold_margin

    def test_specs_distinct_across_offsets_and_shards(self):
        pop = PopulationModel()
        seeds = {pop.home(3, s, o, 0).seed for s in range(4) for o in range(50)}
        assert len(seeds) == 200

    def test_population_spans_the_testbeds(self):
        pop = PopulationModel()
        specs = [pop.home(0, 0, offset, offset) for offset in range(300)]
        testbeds = {spec.testbed for spec in specs}
        assert testbeds == {"house", "apartment", "office"}
        attacked = sum(1 for spec in specs if spec.attacks > 0)
        assert 0.15 < attacked / len(specs) < 0.35

    def test_field_ranges(self):
        pop = PopulationModel()
        for offset in range(200):
            spec = pop.home(1, 0, offset, offset)
            assert spec.deployment in (0, 1)
            assert spec.plan_scale in DEFAULT_PLAN_SCALES
            assert 1 <= spec.owner_count <= 3
            assert spec.device_kind in ("smartphone", "smartwatch")
            assert spec.legit_commands >= 1
            assert spec.attacks >= 0
            assert 0.25 <= spec.away_fraction <= 0.80
            assert 0.2 <= spec.body_block_fraction <= 0.6
            assert spec.push_loss in (0.0, 0.02, 0.08)
            if spec.testbed == "office":
                assert spec.owner_count == 1
                assert spec.device_kind == "smartwatch"

    def test_homes_batch_is_home_by_home(self):
        pop = PopulationModel()
        batch = pop.homes(3, 2, 5, 75)
        assert as_specs(batch, 2, 5) == [pop.home(3, 2, offset, offset)
                                         for offset in range(5, 75)]

    @pytest.mark.parametrize("scales", [(1.0,), DEFAULT_PLAN_SCALES], ids=["one-slot", "default"])
    def test_homes_are_the_numpy_calls(self, scales):
        # One slot is the fleet-full population: its slot draw takes no
        # half-word, so the head is 7 words, not 8.
        pop = PopulationModel(plan_scales=scales)
        assert as_specs(pop.homes(3, 1, 0, 300), 1, 0) == [
            numpy_home(pop, 3, 1, o) for o in range(300)]

    def test_forced_rejection_redraws_the_same_homes(self, monkeypatch):
        pop = PopulationModel()
        normal = as_specs(pop.homes(3, 0, 0, 200), 0, 0)
        seeded = always_retried(monkeypatch, synthesis)
        assert as_specs(pop.homes(3, 0, 0, 200), 0, 0) == normal
        assert seeded == [spec.seed for spec in normal]

    def test_attack_prevalence_knob(self):
        quiet = PopulationModel(attack_prevalence=0.0)
        assert all(quiet.home(0, 0, o, o).attacks == 0 for o in range(100))
        loud = PopulationModel(attack_prevalence=1.0)
        assert all(loud.home(0, 0, o, o).attacks >= 1 for o in range(100))

    def test_invalid_population_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):  # unknown testbed name
            PopulationModel(testbed_mix=(("atlantis", 1.0),))
        with pytest.raises(WorkloadError):
            PopulationModel(attack_prevalence=1.5)

    @pytest.mark.parametrize("knobs", [
        pytest.param(dict(testbed_mix=(("house", 1.0), ("office", -0.5))),
                     id="negative-mix-weight"),
        pytest.param(dict(testbed_mix=(("house", float("nan")),)), id="nan-mix-weight"),
        pytest.param(dict(plan_scales=()), id="no-plan-scales"),
        pytest.param(dict(plan_scales=(1.0, 0.0)), id="zero-scale"),
        pytest.param(dict(plan_scales=(-1.0,)), id="negative-scale"),
        pytest.param(dict(plan_scales=(float("inf"),)), id="inf-scale"),
        pytest.param(dict(plan_scales=(float("nan"),)), id="nan-scale"),
        pytest.param(dict(legit_commands_mean=-1.0), id="negative-legit-mean"),
        pytest.param(dict(legit_commands_mean=float("nan")), id="nan-legit-mean"),
        pytest.param(dict(attacks_mean=-0.5), id="negative-attacks-mean"),
        pytest.param(dict(attacks_mean=float("nan")), id="nan-attacks-mean"),
    ])
    def test_bad_knob_rejected_at_construction(self, knobs):
        # Each of these used to be accepted, and then either dealt the
        # population silently or failed in numpy once per home.
        with pytest.raises(WorkloadError):
            PopulationModel(**knobs)


class TestScaleTestbed:
    @pytest.mark.parametrize("name", ["house", "apartment", "office"])
    def test_geometry_scaled_in_plan_view_only(self, name):
        base = build_testbed(name)
        scaled = scale_testbed(name, 1.15)
        assert set(scaled.plan.points) == set(base.plan.points)
        for number, mp in base.plan.points.items():
            jittered = scaled.plan.points[number]
            assert jittered.room_name == mp.room_name
            assert jittered.point.x == pytest.approx(mp.point.x * 1.15)
            assert jittered.point.y == pytest.approx(mp.point.y * 1.15)
            assert jittered.point.z == mp.point.z
        assert len(scaled.speaker_locations) == len(base.speaker_locations)
        assert scaled.plan.floor_count == base.plan.floor_count

    def test_identity_scale_matches_base(self):
        base = build_testbed("house")
        identity = scale_testbed("house", 1.0)
        assert identity.name == base.name
        assert {n: mp.point for n, mp in identity.plan.points.items()} == \
               {n: mp.point for n, mp in base.plan.points.items()}

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(WorkloadError):
            scale_testbed("house", 0.0)

    def test_scaled_plan_validates(self):
        for factor in (0.85, 1.15):
            scaled = scale_testbed("house", factor)
            scaled.plan.validate()


class TestFleetWorld:
    def test_world_memoized_per_bucket(self):
        first = fleet_world("house", 0, 1.0)
        again = fleet_world("house", 0, 1.0)
        assert first is again
        other = fleet_world("house", 1, 1.0)
        assert other is not first

    def test_warm_worlds_covers_population(self):
        population = PopulationModel()
        count = warm_worlds(population)
        assert count == 3 * 2 * len(DEFAULT_PLAN_SCALES)


# ---------------------------------------------------------------------------
# Reduced-order home model
# ---------------------------------------------------------------------------

class TestSimulateHome:
    def _spec(self, offset=0):
        return PopulationModel().home(5, 0, offset, offset)

    def test_deterministic_per_spec(self):
        spec = self._spec()
        a = simulate_home(spec)
        b = simulate_home(spec)
        assert (a.false_blocks, a.attacks_blocked, a.timeouts, a.retries) == \
               (b.false_blocks, b.attacks_blocked, b.timeouts, b.retries)
        assert a.latencies_us.tolist() == b.latencies_us.tolist()

    def test_counts_are_consistent(self):
        for offset in range(30):
            summary = simulate_home(self._spec(offset))
            assert summary.decisions == summary.legit + summary.attacks
            assert 0 <= summary.false_blocks <= summary.legit
            assert 0 <= summary.attacks_blocked <= summary.attacks
            assert summary.timeouts + summary.latencies_us.size == \
                summary.decisions
            assert all(value > 0 for value in summary.latencies_us.tolist())

    @pytest.mark.parametrize("points", [None, "legit", "away"],
                             ids=["as-built", "one-legit-point", "one-away-point"])
    def test_forced_rejection_block_is_the_normal_block(self, monkeypatch, points):
        # Every home drawn again with numpy's own calls, on worlds as
        # built and on worlds cut to one point, whose picks take no
        # half-word.
        specs = PopulationModel().homes(5, 0, 0, 64)
        if points:
            field = f"{points}_means"
            monkeypatch.setattr(fleet, "fleet_world", lambda *bucket: dataclasses.replace(
                fleet_world(*bucket), **{field: getattr(fleet_world(*bucket), field)[:1]}))
        normal = simulate_block(specs)
        seeded = always_retried(monkeypatch, fleet)
        forced = simulate_block(specs)
        assert len(seeded) == len(specs)
        assert forced.testbeds == normal.testbeds
        assert np.array_equal(forced.testbed, normal.testbed)
        assert forced.counts.keys() == normal.counts.keys()
        for key, values in normal.counts.items():
            assert np.array_equal(forced.counts[key], values), key
        assert np.array_equal(forced.latencies_us, normal.latencies_us)
        assert np.array_equal(forced.latency_home, normal.latency_home)

    @pytest.mark.parametrize("sizes", [[1] * 1024, [37] * 27 + [25], [1023, 1]],
                             ids=["ones", "37s", "1023+1"])
    def test_batch_as_one_block_is_its_homes_in_any_blocks(self, sizes):
        # A 1,024-home batch as one block of the kernel, and the same
        # homes cut into other blocks: each home's counts and latencies
        # are the same.
        pop = PopulationModel()
        whole = simulate_block(pop.homes(5, 0, 0, 1024))
        parts, lo = [], 0
        for size in sizes:
            parts.append((lo, simulate_block(pop.homes(5, 0, lo, lo + size))))
            lo += size
        assert lo == 1024
        for key, values in whole.counts.items():
            assert np.array_equal(np.concatenate([part.counts[key] for _, part in parts]),
                                  values), key
        assert np.array_equal(np.concatenate([part.testbed for _, part in parts]), whole.testbed)
        assert np.array_equal(np.concatenate([part.latencies_us for _, part in parts]),
                              whole.latencies_us)
        assert np.array_equal(np.concatenate([start + part.latency_home for start, part in parts]),
                              whole.latency_home)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=8))
    def test_run_seeds_are_derive_seed(self, seeds):
        assert fleet._run_seeds(seeds) == [derive_seed(seed, "home.run") for seed in seeds]


# ---------------------------------------------------------------------------
# Streaming reducers
# ---------------------------------------------------------------------------

class TestFleetAccumulator:
    def _payloads(self, config):
        return [run_fleet_chunk(config, shard, lo, hi)
                for shard, lo, hi in config.iter_chunks()]

    def test_merge_is_order_independent(self, small_fleet):
        payloads = self._payloads(small_fleet)
        forward = FleetAccumulator()
        for payload in payloads:
            forward.merge_payload(payload)
        backward = FleetAccumulator()
        for payload in reversed(payloads):
            backward.merge_payload(payload)
        assert forward.totals() == backward.totals()
        assert {name: s.to_dict() for name, s in forward.sketches.items()} == \
               {name: s.to_dict() for name, s in backward.sketches.items()}

    @pytest.mark.parametrize(
        "chunk", [1, SEED_BATCH - 1, SEED_BATCH, SEED_BATCH + 1, 2 * SEED_BATCH + 3],
        ids=["one", "block-1", "block", "block+1", "all"])
    def test_chunk_split_does_not_change_state(self, chunk):
        # Every home of a shard folded one by one vs the same homes in
        # chunks of ``chunk``, which cut the kernel's blocks (its seed
        # batches) elsewhere.
        config = FleetConfig(homes=2 * SEED_BATCH + 3, shards=1, seed=11)
        per_home = FleetAccumulator()
        for offset in range(config.homes):
            per_home.add_home(simulate_home(config.population.home(11, 0, offset, offset)))
        split = FleetAccumulator()
        for lo in range(0, config.homes, chunk):
            split.merge_payload(run_fleet_chunk(config, 0, lo, min(lo + chunk, config.homes)))
        assert split.to_payload() == per_home.to_payload()

    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 3), (0, SEED_BATCH), (40, 340)])
    def test_block_totals_are_home_by_home_sums(self, lo, hi):
        # add_block's one product against the testbed one-hot, and its
        # latency split, against every home summed in turn.
        block = simulate_block(PopulationModel().homes(5, 0, lo, hi))
        folded = FleetAccumulator()
        folded.add_block(block)
        expected, latencies = {}, {}
        for home, code in enumerate(block.testbed.tolist()):
            name = block.testbeds[code]
            counts = expected.setdefault(name, dict.fromkeys(COUNT_KEYS, 0))
            for key, values in block.counts.items():
                counts[key] += int(values[home])
            mine = block.latencies_us[block.latency_home == home].tolist()
            counts["latency_total_us"] += sum(mine)
            latencies.setdefault(name, []).extend(mine)
        assert folded.per_testbed == expected
        for name, values in latencies.items():
            sketch = QuantileSketch(fleet.SKETCH_ALPHA)
            sketch.add(np.array(values))
            assert folded.sketches[name].to_dict() == sketch.to_dict()
        assert all(type(total) is int for counts in folded.per_testbed.values()
                   for total in counts.values())

    def test_chunk_across_a_seed_batch(self):
        # One chunk whose homes span two seeding batches, each one
        # block, the second part full, vs the same homes one chunk per
        # home.
        homes = SEED_BATCH + 67
        config = FleetConfig(homes=homes, shards=1, seed=11)
        whole = run_fleet_chunk(config, 0, 0, homes)
        single = FleetAccumulator()
        for offset in range(homes):
            single.merge_payload(run_fleet_chunk(config, 0, offset, offset + 1))
        assert whole == single.to_payload()

    def test_fast_chunk_seeds_no_generator_per_home(self, monkeypatch):
        # Guard for the seeding batches: a chunk at the CLI's default
        # size builds no SeedSequence per home, through numpy's
        # constructors or repro.sim.random.generator.
        config = FleetConfig(homes=256, shards=1, seed=11, chunk_size=256)
        warm_worlds(config.population)
        seeded = []

        def counting(real):
            def seed(*args, **kwargs):
                seeded.append(args)
                return real(*args, **kwargs)
            return seed

        for name in ("SeedSequence", "default_rng"):
            monkeypatch.setattr(np.random, name, counting(getattr(np.random, name)))
        payload = run_fleet_chunk(config, 0, 0, 256)
        assert payload["per_testbed"]
        assert seeded == []

    def test_merge_snapshots_fold_is_associative(self):
        # Fleet payloads carry no metrics snapshot; the per-run guard
        # snapshots that non-fleet experiments fold still merge the
        # same way one at a time as all at once.
        rng = np.random.default_rng(5)
        snapshots = []
        for _ in range(6):
            registry = MetricsRegistry()
            scope = registry.scope("guard")
            scope.counter("decisions").inc(int(rng.integers(0, 50)))
            scope.counter("timeouts").inc(int(rng.integers(0, 5)))
            latency = scope.histogram("decision_latency")
            for value in rng.exponential(1.5, size=int(rng.integers(1, 20))):
                latency.record(float(value))
            snapshots.append(registry.snapshot())
        all_at_once = merge_snapshots(snapshots)
        incremental = snapshots[0]
        for snapshot in snapshots[1:]:
            incremental = merge_snapshots([incremental, snapshot])
        assert incremental == all_at_once

    def test_total_sketch_merges_testbeds(self, small_fleet):
        acc = FleetAccumulator()
        for payload in self._payloads(small_fleet):
            acc.merge_payload(payload)
        merged = acc.total_sketch()
        assert merged.count == sum(s.count for s in acc.sketches.values())
        assert not math.isnan(merged.quantile(0.99))


# ---------------------------------------------------------------------------
# End-to-end fleet determinism
# ---------------------------------------------------------------------------

class TestFleetDeterminism:
    @pytest.fixture(scope="class")
    def reference(self, request):
        config = FleetConfig(homes=240, shards=4, seed=11, chunk_size=32)
        return run_fleet(config, workers=1).render()

    def test_worker_count_invariant(self, small_fleet, reference):
        assert run_fleet(small_fleet, workers=3).render() == reference

    def test_chunk_size_invariant(self, reference):
        config = FleetConfig(homes=240, shards=4, seed=11, chunk_size=7)
        assert run_fleet(config, workers=2).render() == reference

    def test_per_task_dispatch_invariant(self, reference):
        # chunk_size=1 is one home per pool task, the finest grain.
        config = FleetConfig(homes=240, shards=4, seed=11, chunk_size=1)
        assert run_fleet(config, workers=2).render() == reference

    def test_shard_order_invariant(self, small_fleet, reference):
        accumulator = FleetAccumulator()
        chunks = 0
        for shard in [2, 0, 3, 1]:
            size = small_fleet.shard_size(shard)
            for lo in range(0, size, small_fleet.chunk_size):
                accumulator = accumulator.merge_payload(run_fleet_chunk(
                    small_fleet, shard, lo, min(lo + small_fleet.chunk_size, size)))
                chunks += 1
        shuffled = FleetResult(config=small_fleet, accumulator=accumulator, elapsed=1.0,
                               chunks=chunks, workers=1)
        assert shuffled.render() == reference

    def test_failed_numpy_probe_keeps_the_table(self, small_fleet, reference,
                                                monkeypatch, capsys):
        # On a numpy whose internals the batch draws do not match, every
        # home is drawn with numpy's own calls: the same table.
        monkeypatch.setattr(random_module, "_probe", lambda: False)
        monkeypatch.setattr(random_module, "_SPELLED", None)
        assert run_fleet(small_fleet, workers=1).render() == reference
        warning = capsys.readouterr().err
        assert warning.count("\n") == 1 and f"numpy {np.__version__}" in warning

    def test_different_seed_differs(self, small_fleet, reference):
        other = FleetConfig(homes=240, shards=4, seed=12, chunk_size=32)
        assert run_fleet(other, workers=1).render() != reference

    def test_render_carries_no_wall_clock(self, small_fleet):
        first = run_fleet(small_fleet, workers=1)
        second = run_fleet(small_fleet, workers=1)
        assert first.elapsed != second.elapsed or first.elapsed > 0
        assert first.render() == second.render()


class TestFleetConfig:
    def test_shard_partition_covers_fleet(self):
        config = FleetConfig(homes=103, shards=8)
        sizes = [config.shard_size(s) for s in range(8)]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1
        starts = [config.shard_start(s) for s in range(8)]
        assert starts[0] == 0
        for shard in range(7):
            assert starts[shard + 1] == starts[shard] + sizes[shard]

    def test_chunks_cover_every_home(self):
        config = FleetConfig(homes=103, shards=8, chunk_size=10)
        covered = sum(hi - lo for _, lo, hi in config.iter_chunks())
        assert covered == 103

    def test_invalid_config_rejected(self):
        with pytest.raises(WorkloadError):
            FleetConfig(homes=0)
        with pytest.raises(WorkloadError):
            FleetConfig(homes=10, shards=0)
        with pytest.raises(WorkloadError):
            FleetConfig(homes=10, chunk_size=0)
        with pytest.raises(WorkloadError):
            FleetConfig(homes=10, fidelity="cinematic")


class TestFleetCli:
    def test_fleet_command(self, capsys, tmp_path):
        from repro.__main__ import main

        out_path = tmp_path / "fleet.txt"
        code = main(["fleet", "--homes", "60", "--shards", "2",
                     "--chunk-size", "16", "--seed", "11",
                     "--output", str(out_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "Fleet simulation: 60 homes" in captured.out
        assert "homes/sec" in captured.err
        assert "Fleet simulation" in out_path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("args, telemetry", [
        (["--homes", "100", "--shards", "1", "--workers", "2"],
         "(workers=1, chunk=256, 1 task)"),
        (["--homes", "64", "--shards", "2", "--chunk-size", "16", "--workers", "2"],
         "(workers=2, chunk=16, 4 tasks)"),
    ], ids=["one-task-no-pool", "pool"])
    def test_throughput_names_the_processes_that_ran(self, capsys, args, telemetry):
        from repro.__main__ import main

        assert main(["fleet", *args]) == 0
        assert telemetry in capsys.readouterr().err


# A pooled fleet's parent, and a pool worker that ran a chunk: neither
# may import numpy.ma, which costs each process about 9 ms and 1 MB.
_NUMPY_MA_RUN = """
import json, os, sys
from repro.experiments.fleet import FleetConfig, run_fleet, run_fleet_chunk
from repro.experiments.parallel import ExperimentEngine, ExperimentTask

def chunk_then_modules(config, shard):
    run_fleet_chunk(config, shard, 0, config.shard_size(shard))
    return os.getpid(), "numpy.ma" in sys.modules

config = FleetConfig(homes=2048, chunk_size=1024)
result = run_fleet(config, workers=2)
workers = ExperimentEngine(workers=2).run(
    [ExperimentTask(chunk_then_modules, (config, shard)) for shard in range(2)])
print(json.dumps({"pid": os.getpid(), "width": result.workers,
                  "parent": "numpy.ma" in sys.modules, "workers": workers}))
"""


def test_no_fleet_process_imports_numpy_ma():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _NUMPY_MA_RUN], capture_output=True,
                         text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["width"] == 2
    assert report["parent"] is False
    assert report["workers"]
    for pid, imported in report["workers"]:
        assert pid != report["pid"]
        assert imported is False


class TestFullFidelity:
    @pytest.mark.slow
    def test_full_fidelity_small_fleet(self):
        config = FleetConfig(homes=3, shards=1, seed=7, chunk_size=2,
                             fidelity="full")
        result = run_fleet(config, workers=1)
        totals = result.accumulator.totals()
        assert totals["homes"] == 3
        assert totals["decisions"] > 0
        assert "full fidelity" in result.render()


# ---------------------------------------------------------------------------
# Constant-memory streaming (satellite: pool releases future references)
# ---------------------------------------------------------------------------

class TestConstantMemory:
    @pytest.mark.slow
    def test_streaming_fold_peak_is_flat_in_fleet_size(self):
        import tracemalloc

        warm_worlds(PopulationModel())  # cache growth must not count

        def peak_for(homes):
            config = FleetConfig(homes=homes, shards=8, seed=3)
            tracemalloc.start()
            run_fleet(config, workers=1)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        peak_for(200)  # warm allocator pools and module state
        small = peak_for(1000)
        large = peak_for(10000)
        # A 10x larger fleet must not need a meaningfully larger heap:
        # the fold holds one in-flight chunk plus constant accumulators.
        assert large < small * 1.5, (small, large)

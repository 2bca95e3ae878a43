"""Fleet simulation tests: sharded synthesis determinism, floor-plan
jitter geometry, byte-identical fleet tables across worker counts /
chunk sizes / shard orders, reducer associativity,
and the constant-memory guarantee of the streaming fold."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.experiments.fleet import (
    BLOCK_HOMES,
    SEED_BATCH,
    FleetAccumulator,
    FleetConfig,
    run_fleet,
    run_fleet_chunk,
    simulate_home,
)
from repro.experiments.synthesis import (
    DEFAULT_PLAN_SCALES,
    PopulationModel,
    fleet_world,
    scale_testbed,
    warm_worlds,
)
from repro.obs.metrics import MetricsRegistry, merge_snapshots
# Aliased: a module-level name starting with "test" would be collected
# by pytest as a test item.
from repro.radio.testbeds import testbed_by_name as build_testbed


@pytest.fixture(scope="module")
def small_fleet():
    return FleetConfig(homes=240, shards=4, seed=11, chunk_size=32)


# ---------------------------------------------------------------------------
# Home synthesis
# ---------------------------------------------------------------------------

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
        batch = pop.homes(3, 2, 5, 5 + BLOCK_HOMES + 6, 100)
        assert batch == [pop.home(3, 2, offset, 100 + offset)
                         for offset in range(5, 5 + BLOCK_HOMES + 6)]

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
        "chunk", [1, BLOCK_HOMES - 1, BLOCK_HOMES, BLOCK_HOMES + 1, 2 * BLOCK_HOMES + 3],
        ids=["one", "block-1", "block", "block+1", "all"])
    def test_chunk_split_does_not_change_state(self, chunk):
        # Every home of a shard folded one by one vs the same homes in
        # chunks of ``chunk``, which cut the kernel's blocks elsewhere.
        config = FleetConfig(homes=2 * BLOCK_HOMES + 3, shards=1, seed=11)
        per_home = FleetAccumulator()
        for offset in range(config.homes):
            per_home.add_home(simulate_home(config.population.home(11, 0, offset, offset)))
        split = FleetAccumulator()
        for lo in range(0, config.homes, chunk):
            split.merge_payload(run_fleet_chunk(config, 0, lo, min(lo + chunk, config.homes)))
        assert split.to_payload() == per_home.to_payload()

    def test_chunk_across_a_seed_batch(self):
        # One chunk whose homes span two seeding batches, the second
        # ending mid-block, vs the same homes one chunk per home.
        homes = SEED_BATCH + BLOCK_HOMES + 3
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
        shuffled = run_fleet(small_fleet, workers=2,
                             shard_order=[2, 0, 3, 1])
        assert shuffled.render() == reference

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

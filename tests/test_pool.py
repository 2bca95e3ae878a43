"""Warm-start scenario pool, fleet full-build parity, and the
fast-vs-full cross-validation statistics.

The load-bearing contract here is byte identity: a home restored from
a pool template (unpickle + rehome) must produce exactly the guard
event stream a freshly built world produces.  Everything else — the
``fleet-validate`` statistics, million-home full-fidelity claims —
leans on that invariant.
"""

from __future__ import annotations

import io
import math

import pytest

from repro.core.config import VoiceGuardConfig
from repro.core.recognizers import clear_recognizer_memo
from repro.errors import ConfigError, SnapshotError
from repro.experiments.fleet import (
    FleetAccumulator,
    FleetConfig,
    FleetProgressMeter,
    FleetResult,
    _summarize_full,
    clear_scenario_pool,
    run_fleet,
    run_fleet_chunk,
)
from repro.experiments.fleet_validate import (
    CHI2_CRITICAL_DF1,
    chi2_2x2,
    run_fleet_validate,
)
from repro.experiments.parallel import derive_seed
from repro.experiments.pool import (
    ScenarioPool,
    _build_bucket_scenario,
    _SnapshotPickler,
    _shared_immutables,
    build_home_cold,
    pool_key,
    snapshot,
    template_seed,
)
from repro.experiments.synthesis import HomeSpec, PopulationModel
from repro.experiments.workload import SevenDayWorkload
from repro.obs.metrics import QuantileSketch, ks_critical_value, sketch_ks_distance
from repro.sim.random import RngHub

# Apartment-only, tiny workloads: the cheapest populations/worlds that
# still exercise the whole packet-level path.
CHEAP_POPULATION = PopulationModel(
    testbed_mix=(("apartment", 1.0),),
    plan_scales=(1.0,),
    attack_prevalence=0.5,
    legit_commands_mean=2.0,
    attacks_mean=1.0,
)


def make_spec(index=0, testbed="apartment", deployment=0, plan_scale=1.0,
              owner_count=1, device_kind="smartphone", legit=2, attacks=1,
              push_loss=0.0):
    return HomeSpec(
        index=index,
        shard=0,
        seed=derive_seed(99, "test.pool.home", index),
        testbed=testbed,
        deployment=deployment,
        plan_scale=plan_scale,
        owner_count=owner_count,
        device_kind=device_kind,
        legit_commands=legit,
        attacks=attacks,
        away_fraction=0.3,
        body_block_fraction=0.2,
        push_loss=push_loss,
        threshold_margin=0.5,
    )


def run_home(scenario, spec):
    """Simulate the spec's workload and return the guard event stream."""
    workload = SevenDayWorkload(scenario)
    workload.run(spec.legit_commands, spec.attacks)
    scenario.speaker.settle_all()
    return scenario.guard.log.event_stream()


# One spec per kind of world bucket: every testbed (the house carries a
# fitted trace classifier), both device kinds, one to three owners, and
# an armed fault plan.
IDENTITY_SPECS = {
    "apartment": make_spec(index=0),
    "apartment-watch-2owners": make_spec(index=1, deployment=1, owner_count=2,
                                         device_kind="smartwatch"),
    "office-3owners": make_spec(index=2, testbed="office", owner_count=3),
    "house-watch": make_spec(index=3, testbed="house",
                             device_kind="smartwatch"),
    "apartment-faults": make_spec(index=4, push_loss=0.02),
}


class TestPoolIdentity:
    def test_pooled_stream_matches_cold_build(self):
        """The tentpole invariant, on every kind of bucket."""
        pool = ScenarioPool()
        for name, spec in IDENTITY_SPECS.items():
            pooled_scenario = pool.acquire(spec)
            if spec.testbed == "house":
                assert pooled_scenario.trace_classifier is not None
            if spec.push_loss > 0.0:
                assert pooled_scenario.env.faults.plan is not None
            pooled = run_home(pooled_scenario, spec)
            cold = run_home(build_home_cold(spec), spec)
            assert pooled == cold, f"stream diverged for {name}"
        # Five specs, four world buckets (the fault spec shares one).
        assert pool.template_builds == 4
        assert pool.restores == 5

    def test_restores_share_immutables_and_nothing_else(self):
        """Two restores of one bucket: private state, shared constants."""
        pool = ScenarioPool()
        spec = IDENTITY_SPECS["house-watch"]
        first, second = pool.acquire(spec), pool.acquire(spec)
        assert first.sim is not second.sim
        assert first.guard is not second.guard
        assert first.guard.proxy is not second.guard.proxy
        shared = pool.template(pool_key(spec)).shared
        assert len(shared) == 5  # model, testbed, plan, corpus, classifier
        for scenario in (first, second):
            restored = _shared_immutables(scenario)
            assert len(restored) == len(shared)
            for ours, template in zip(restored, shared):
                assert ours is template

    def test_restores_are_isolated_from_pool_history(self):
        """Same spec, same stream — no matter what ran on the pool before."""
        spec_a = make_spec(index=0)
        spec_b = make_spec(index=1, push_loss=0.02)
        pool = ScenarioPool()
        first = run_home(pool.acquire(spec_a), spec_a)
        run_home(pool.acquire(spec_b), spec_b)  # perturb pool + globals
        again = run_home(pool.acquire(spec_a), spec_a)
        assert first == again

    def test_template_reused_within_bucket(self):
        pool = ScenarioPool()
        spec = make_spec(index=0)
        pool.acquire(spec)
        pool.acquire(make_spec(index=5))  # same bucket fields
        assert pool.template_builds == 1
        assert pool.restores == 2
        pool.clear()
        pool.acquire(spec)
        assert pool.template_builds == 2

    def test_template_seed_is_bucket_not_home(self):
        """Two homes in one bucket build from one seed; buckets differ."""
        a = make_spec(index=0)
        b = make_spec(index=7)
        c = make_spec(index=1, deployment=1)
        assert pool_key(a) == pool_key(b)
        assert template_seed(pool_key(a)) == template_seed(pool_key(b))
        assert template_seed(pool_key(a)) != template_seed(pool_key(c))


def _only_recognizer(scenario):
    """The single trained recognizer installed on the scenario's guard."""
    recognizers = scenario.guard.recognition.window_recognizers
    assert len(recognizers) == 1
    return next(iter(recognizers.values()))


class TestPoolLearnedRecognizers:
    """Warm-start identity extends to guards with trained recognizers."""

    def test_pooled_mlp_weights_and_stream_match_cold_build(self):
        clear_recognizer_memo()
        config = VoiceGuardConfig(recognizer="mlp")
        spec = make_spec(index=0)
        pooled_scenario = ScenarioPool(config=config).acquire(spec)
        pooled_weights = _only_recognizer(pooled_scenario).weight_bytes()
        pooled_stream = run_home(pooled_scenario, spec)
        cold_scenario = build_home_cold(spec, config=config)
        # Bit-identical weights AND a byte-identical guard event stream:
        # training draws only from its dedicated streams, so the rehome
        # reseed leaves pooled and cold guards indistinguishable.
        assert _only_recognizer(cold_scenario).weight_bytes() == pooled_weights
        assert run_home(cold_scenario, spec) == pooled_stream

    def test_memo_warm_template_rebuild_is_byte_identical(self):
        # pool.clear() drops the templates but not the recognizer memo:
        # the rebuilt template trains from the memo (zero stream draws)
        # and the restored home must still replay the same bytes.
        clear_recognizer_memo()
        config = VoiceGuardConfig(recognizer="knn")
        spec = make_spec(index=0)
        pool = ScenarioPool(config=config)
        first = run_home(pool.acquire(spec), spec)
        pool.clear()
        warm = run_home(pool.acquire(spec), spec)
        assert pool.template_builds == 2
        assert warm == first
        clear_recognizer_memo()


class _TypeRecordingPickler(_SnapshotPickler):
    """The snapshot pickler, recording the type of every object it meets."""

    def __init__(self, shared):
        super().__init__(io.BytesIO(), shared)
        self.types = set()

    def persistent_id(self, obj):
        self.types.add(type(obj))
        return super().persistent_id(obj)


class TestSnapshotHazards:
    def test_template_is_closure_free(self):
        """Each bucket the test populations reach snapshots cleanly."""
        keys = {pool_key(CHEAP_POPULATION.home(0, 0, offset, offset))
                for offset in range(16)}
        keys.update(pool_key(spec) for spec in IDENTITY_SPECS.values())
        pool = ScenarioPool()
        for key in sorted(keys):
            assert pool.template(key).blob  # raises SnapshotError if not
        assert pool.template_builds == len(keys)

    def test_planted_closure_is_detected(self):
        key = pool_key(make_spec())
        scenario = _build_bucket_scenario(key, None, ("fleet.pool",) + key)
        captured = object()
        scenario.guard._planted_callback = lambda: captured
        with pytest.raises(SnapshotError, match="apartment"):
            snapshot(scenario, _shared_immutables(scenario), key)

    def test_no_itertools_objects_in_snapshot(self):
        key = pool_key(IDENTITY_SPECS["house-watch"])
        scenario = _build_bucket_scenario(key, None, ("fleet.pool",) + key)
        pickler = _TypeRecordingPickler(_shared_immutables(scenario))
        pickler.dump(scenario)
        leaked = sorted(t.__qualname__ for t in pickler.types
                        if t.__module__ == "itertools")
        assert leaked == []


class TestRngHubReseed:
    def test_reseed_matches_fresh_hub(self):
        hub = RngHub(1)
        hub.stream("a").normal(size=8)  # advance existing stream state
        hub.reseed(2)
        fresh = RngHub(2)
        assert (hub.stream("a").normal(size=4).tolist()
                == fresh.stream("a").normal(size=4).tolist())
        # A stream first created *after* the reseed must be
        # indistinguishable too (memo-warm builds skip some streams).
        assert (hub.stream("b").normal(size=4).tolist()
                == fresh.stream("b").normal(size=4).tolist())
        assert hub.seed == 2


class TestFleetFullBuild:
    @pytest.mark.slow
    def test_pooled_and_cold_fleets_render_identically(self):
        clear_scenario_pool()
        config = FleetConfig(homes=4, shards=2, seed=11, chunk_size=2,
                             fidelity="full", population=CHEAP_POPULATION)
        pooled = run_fleet(config, workers=1)
        # The cold side: the same specs, each world built from scratch.
        cold = FleetAccumulator()
        for shard, lo, hi in config.iter_chunks():
            start = config.shard_start(shard)
            for offset in range(lo, hi):
                spec = config.population.home(config.seed, shard, offset,
                                              start + offset)
                cold.add_home(_summarize_full(build_home_cold(spec), spec))
        cold_result = FleetResult(config=config, accumulator=cold,
                                  elapsed=0.0, chunks=0, workers=1)
        assert pooled.render() == cold_result.render()


class TestProgressMeter:
    @staticmethod
    def _payload(**homes):
        return {"per_testbed": {name: {"homes": n}
                                for name, n in homes.items()}}

    def test_counts_and_final_emission(self):
        messages = []
        meter = FleetProgressMeter(10, emit=messages.append,
                                   min_interval=0.0)
        meter.update(self._payload(house=4))
        meter.update(self._payload(house=6))
        assert meter.done == 10
        assert messages[0].startswith("fleet: 4/10 homes (40%)")
        assert messages[-1].startswith("fleet: 10/10 homes (100%)")

    def test_metrics_free_payload_falls_back_to_counts(self):
        messages = []
        meter = FleetProgressMeter(3, emit=messages.append, min_interval=0.0)
        meter.update(self._payload(apartment=1, house=2))
        assert meter.done == 3

    def test_chunk_payloads_alone_drive_the_meter(self):
        # Real chunk payloads carry counts and sketches only: the meter
        # counts every home from them and emits the final line.
        config = FleetConfig(homes=12, shards=2, seed=1, chunk_size=4)
        messages = []
        meter = FleetProgressMeter(config.homes, emit=messages.append,
                                   min_interval=3600.0)
        for shard, lo, hi in config.iter_chunks():
            payload = run_fleet_chunk(config, shard, lo, hi)
            assert set(payload) == {"per_testbed", "sketches"}
            meter.update(payload)
        assert meter.done == 12
        assert len(messages) == 2  # the first update, then the final one
        assert messages[-1].startswith("fleet: 12/12 homes (100%)")

    def test_rate_limit_suppresses_intermediate_emissions(self):
        messages = []
        meter = FleetProgressMeter(4, emit=messages.append,
                                   min_interval=3600.0)
        meter.update(self._payload(house=1))
        assert len(messages) == 1  # the first update always emits
        meter.update(self._payload(house=1))
        assert len(messages) == 1  # within the interval, not final
        meter.update(self._payload(house=2))
        assert len(messages) == 2  # final emission always fires
        assert messages[-1].startswith("fleet: 4/4 homes")


class TestStatistics:
    def test_chi2_known_value(self):
        # (30,10) vs (10,30): chi2 = 80 * (30*30 - 10*10)^2 / 40^4 = 20
        assert chi2_2x2(30, 10, 10, 30) == pytest.approx(20.0)

    def test_chi2_identical_rows_is_zero(self):
        assert chi2_2x2(15, 5, 15, 5) == pytest.approx(0.0)

    def test_chi2_degenerate_margins_are_zero(self):
        assert chi2_2x2(0, 0, 3, 4) == 0.0  # empty row
        assert chi2_2x2(0, 5, 0, 7) == 0.0  # empty column
        assert CHI2_CRITICAL_DF1 == pytest.approx(6.635, abs=1e-3)

    def test_ks_identical_sketches_is_zero(self):
        a, b = QuantileSketch(), QuantileSketch()
        for value in (1.0, 2.0, 5.0, 9.0):
            a.add(value)
            b.add(value)
        assert sketch_ks_distance(a, b) == 0.0

    def test_ks_disjoint_sketches_is_one(self):
        a, b = QuantileSketch(), QuantileSketch()
        for _ in range(10):
            a.add(1.0)
            b.add(100.0)
        assert sketch_ks_distance(a, b) == pytest.approx(1.0)

    def test_ks_zero_heavy_side_counts(self):
        a, b = QuantileSketch(), QuantileSketch()
        for _ in range(10):
            a.add(0.0)  # all mass in the zero bucket
            b.add(3.0)
        assert sketch_ks_distance(a, b) == pytest.approx(1.0)

    def test_ks_empty_side_is_nan(self):
        a, b = QuantileSketch(), QuantileSketch()
        a.add(1.0)
        assert math.isnan(sketch_ks_distance(a, b))

    def test_ks_alpha_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            sketch_ks_distance(QuantileSketch(alpha=0.01),
                               QuantileSketch(alpha=0.02))

    def test_ks_critical_value(self):
        c = math.sqrt(-0.5 * math.log(0.005))
        assert ks_critical_value(100, 100) == pytest.approx(
            c * math.sqrt(200 / 10000.0))
        # More samples, tighter threshold.
        assert ks_critical_value(400, 400) < ks_critical_value(100, 100)
        assert math.isnan(ks_critical_value(0, 10))


@pytest.mark.slow
class TestFleetValidate:
    def test_cross_validation_structure(self):
        clear_scenario_pool()
        result = run_fleet_validate(homes=6, shards=2, seed=3,
                                    population=CHEAP_POPULATION)
        assert result.homes == 6
        assert [c.testbed for c in result.comparisons] == ["apartment"]
        comparison = result.comparisons[0]
        assert comparison.fast_counts["homes"] == 6
        assert comparison.full_counts["homes"] == 6
        # The outcome chi2 statistics are always finite numbers.
        for value in (comparison.chi2_false_block, comparison.chi2_blocked,
                      comparison.chi2_timeout):
            assert value == value and value >= 0.0
        rendered = result.render()
        assert "Fleet fidelity cross-validation" in rendered
        assert ("pass" in rendered) or ("FAIL" in rendered)
        assert "homes/sec" in result.render_throughput()


@pytest.mark.slow
class TestCli:
    def test_fleet_validate_cli_runs(self, capsys):
        from repro.__main__ import main

        clear_scenario_pool()
        assert main(["fleet-validate", "--homes", "4", "--shards", "2",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fleet fidelity cross-validation" in out

    def test_fleet_progress_cli_runs(self, capsys):
        from repro.__main__ import main

        assert main(["fleet", "--homes", "64", "--shards", "2",
                     "--seed", "1", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "Fleet simulation" in captured.out
        assert "fleet: 64/64 homes" in captured.err

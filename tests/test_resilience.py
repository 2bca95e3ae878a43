"""Fault injection and the resilient decision path.

Covers the injector determinism contract, the decision-path edge cases
(all devices offline, retry succeeding on the final attempt,
degraded-cache expiry racing a late report, every command blocked at
100 % push loss), the ``push.sent`` accounting fix, and the
resilience experiment's same-seed reproducibility and retry dominance.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.metrics import percentile, summarize_resilience
from repro.core.decision import DecisionContext, RssiDecisionMethod, Verdict
from repro.core.registry import DeviceRegistry
from repro.core.resilience import ProximityCache, ResilienceEventType
from repro.errors import ConfigError
from repro.experiments.resilience import run_resilience_cell
from repro.experiments.scenarios import build_scenario
from repro.experiments.workload import SevenDayWorkload
from repro.faults.plan import (
    ANY_DEVICE,
    FaultInjector,
    FaultPlan,
    OfflineWindow,
    offline_outage,
)
from repro.home.environment import HomeEnvironment
from repro.radio.geometry import Point
from repro.radio.testbeds import apartment_testbed
from repro.sim.simulator import Simulator

NEAR = Point(2.2, 4.2, 0)  # beside the apartment speaker
BENIGN_PLAN = FaultPlan()  # arms the injector without any faults


def make_world(fault_plan=None, **method_kwargs):
    """An apartment with two phone owners and a wired decision method."""
    env = HomeEnvironment(apartment_testbed(), deployment=0, seed=9,
                          fault_plan=fault_plan)
    alice = env.add_person("alice", NEAR)
    bob = env.add_person("bob", Point(9.0, 1.0, 0))  # far: bath, behind walls
    phone1 = env.add_smartphone("phone1", alice)
    phone2 = env.add_smartphone("phone2", bob)
    registry = DeviceRegistry()
    registry.register(phone1, threshold=-8.0)
    registry.register(phone2, threshold=-8.0)
    method = RssiDecisionMethod(
        env.sim, env.push, registry, env.speaker_beacon, obs=env.obs, **method_kwargs
    )
    return env, (alice, bob), (phone1, phone2), registry, method


def counter(env, name):
    return env.obs.metrics.snapshot()["counters"][name]


def decide(env, method, horizon=8.0):
    results = []
    method.decide(
        DecisionContext(window_id=1, speaker_ip="x", requested_at=env.sim.now),
        results.append,
    )
    env.sim.run_for(horizon)
    assert results, "decision never resolved"
    return results[0]


# -- fault plan / injector ---------------------------------------------------
class TestFaultPlan:
    def test_probability_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(push_loss=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(report_loss=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(push_extra_delay=-1.0)

    def test_offline_window_validation_and_coverage(self):
        with pytest.raises(ConfigError):
            OfflineWindow("phone1", 5.0, 5.0)
        window = OfflineWindow("phone1", 10.0, 20.0)
        assert window.covers("phone1", 10.0)
        assert not window.covers("phone1", 20.0)  # half-open
        assert not window.covers("phone2", 15.0)
        outage = offline_outage(0.0, 1.0)
        assert outage.device == ANY_DEVICE
        assert outage.covers("anything", 0.5)

    def test_windows_normalized_to_tuple(self):
        plan = FaultPlan(offline_windows=[offline_outage(0.0, 1.0)])
        assert isinstance(plan.offline_windows, tuple)
        hash(plan)  # frozen + tuple-ized: usable as a cache key

    def test_inactive_injector_never_injects(self):
        sim = Simulator()
        injector = FaultInjector(sim, plan=None)
        assert not injector.active
        assert not injector.push_dropped("phone1")
        assert injector.push_extra_delay("phone1") == 0.0
        assert not injector.device_offline("phone1")
        assert injector.total_injected == 0

    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(seed=42, push_loss=0.5, report_loss=0.3)
        rolls = []
        for _ in range(2):
            injector = FaultInjector(Simulator(), plan)
            rolls.append([
                (injector.push_dropped("d"), injector.report_dropped("d"))
                for _ in range(64)
            ])
        assert rolls[0] == rolls[1]
        assert any(push for push, _ in rolls[0])
        assert any(not push for push, _ in rolls[0])

    def test_channels_draw_independent_streams(self):
        # Enabling a second channel must not change the first channel's
        # sequence — each rolls its own seeded stream.
        base = FaultInjector(Simulator(), FaultPlan(seed=7, push_loss=0.4))
        both = FaultInjector(
            Simulator(), FaultPlan(seed=7, push_loss=0.4, scan_failure=0.4)
        )
        base_rolls = [base.push_dropped("d") for _ in range(64)]
        mixed_rolls = []
        for _ in range(64):
            both.scan_failed("s")  # interleaved draws on another channel
            mixed_rolls.append(both.push_dropped("d"))
        assert base_rolls == mixed_rolls

    def test_counts_and_events(self):
        sim = Simulator()
        injector = FaultInjector(sim, FaultPlan(seed=1, push_loss=1.0))
        assert injector.push_dropped("phone1")
        assert injector.count("push_loss") == 1
        assert injector.total_injected == 1
        assert injector.events[0].channel == "push_loss"
        assert injector.events[0].target == "phone1"


# -- push accounting (satellite: count only scheduled deliveries) -----------
class TestPushAccounting:
    def test_lost_push_not_counted_as_sent(self):
        env, _, _, _, method = make_world(fault_plan=BENIGN_PLAN)
        env.faults.push_dropped = lambda name: True  # script: lose everything
        result = decide(env, method)
        assert counter(env, "push.sent") == 0
        assert counter(env, "push.lost") == 2
        assert result.verdict is Verdict.TIMEOUT
        assert not result.reports

    def test_healthy_push_counted_once_scheduled(self):
        env, _, _, _, method = make_world()
        assert env.faults is None  # no plan -> no injector at all
        result = decide(env, method)
        assert counter(env, "push.sent") == 2
        assert counter(env, "push.lost") == 0
        assert result.verdict is Verdict.LEGITIMATE


# -- decision-path edge cases ------------------------------------------------
class TestDecisionResilience:
    def test_all_devices_offline_resolves_early(self):
        plan = FaultPlan(offline_windows=(offline_outage(0.0, 1e9),))
        trail = []
        env, _, _, _, method = make_world(fault_plan=plan, on_event=trail.append)
        resolved_at = []
        results = []

        def on_result(result):
            resolved_at.append(env.sim.now)
            results.append(result)

        method.decide(
            DecisionContext(window_id=1, speaker_ip="x", requested_at=env.sim.now),
            on_result,
        )
        env.sim.run_for(8.0)
        assert results
        result = results[0]
        assert result.verdict is Verdict.TIMEOUT
        assert result.offline_devices == ["phone1", "phone2"]
        assert not result.reports
        # Resolved on the last NACK, not by burning the full timeout.
        kinds = [e.type for e in trail]
        assert kinds.count(ResilienceEventType.DEVICE_OFFLINE) == 2
        assert ResilienceEventType.DECISION_TIMEOUT not in kinds
        assert resolved_at[0] < 5.0  # NACKs land within push delivery time

    def test_retry_succeeds_on_final_attempt(self):
        trail = []
        env, _, _, _, method = make_world(
            fault_plan=BENIGN_PLAN, push_retries=1, on_event=trail.append,
        )
        drops = {"phone1": 1, "phone2": 1}  # lose the first attempt each

        def scripted_drop(name):
            if drops[name] > 0:
                drops[name] -= 1
                return True
            return False

        env.faults.push_dropped = scripted_drop
        result = decide(env, method)
        assert result.verdict is Verdict.LEGITIMATE
        assert result.satisfied_by == "phone1"
        assert result.retries >= 1  # phone1 needed its extra attempt
        retry_attempts = [
            e.attempt for e in trail
            if e.type is ResilienceEventType.PUSH_RETRY and e.device_name == "phone1"
        ]
        assert retry_attempts == [2]

    def test_offline_requery_next_best_device(self):
        plan = FaultPlan(offline_windows=(OfflineWindow("phone2", 0.0, 1e9),))
        trail = []
        env, _, _, _, method = make_world(fault_plan=plan, push_retries=1,
                                          on_event=trail.append)
        result = decide(env, method)
        assert result.verdict is Verdict.LEGITIMATE
        assert result.offline_devices == ["phone2"]
        kinds = [e.type for e in trail]
        assert ResilienceEventType.DEVICE_OFFLINE in kinds
        requeried = [e.device_name for e in trail
                     if e.type is ResilienceEventType.OFFLINE_REQUERY]
        assert requeried == ["phone1"]

    def test_degraded_cache_expiry_races_late_report(self):
        trail = []
        env, _, _, _, method = make_world(
            fault_plan=BENIGN_PLAN, proximity_cache_ttl=60.0, on_event=trail.append,
        )
        # Query 1: every push is delayed past the 5 s decision timeout,
        # so the report can only arrive *after* the deadline — a TIMEOUT
        # verdict whose late report then refreshes the cache.
        env.faults.push_extra_delay = lambda name: 6.0
        first = decide(env, method, horizon=10.0)
        assert first.verdict is Verdict.TIMEOUT
        assert method.proximity_cache.entry("phone1") is not None

        # Query 2, inside the TTL, under total push loss: the cached
        # proximity stands in for live evidence.
        env.faults.push_dropped = lambda name: True
        second = decide(env, method)
        assert second.verdict is Verdict.LEGITIMATE
        assert second.degraded
        assert second.satisfied_by == "phone1"
        assert counter(env, "decision.degraded_grants") == 1

        # Query 3, after the TTL expires: the entry is stale, the grant
        # is refused, and the verdict falls back to TIMEOUT.
        env.sim.run_for(61.0)
        third = decide(env, method)
        assert third.verdict is Verdict.TIMEOUT
        assert not third.degraded
        kinds = [e.type for e in trail]
        assert ResilienceEventType.DEGRADED_GRANT in kinds
        assert ResilienceEventType.DEGRADED_MISS in kinds

    def test_live_below_threshold_report_beats_cache(self):
        # A device that answered below threshold must not vouch from the
        # cache, however fresh its positive entry is.
        env, people, _, _, method = make_world(
            fault_plan=BENIGN_PLAN, proximity_cache_ttl=600.0,
        )
        method.proximity_cache.update("phone1", env.sim.now, True)
        method.proximity_cache.update("phone2", env.sim.now, True)
        people[0].teleport(Point(9.0, 1.0, 0))  # both owners now far away
        result = decide(env, method, horizon=10.0)
        assert result.verdict is Verdict.MALICIOUS
        assert not result.degraded
        assert len(result.reports) == 2

    def test_default_config_keeps_single_shot_protocol(self):
        trail = []
        env, _, _, _, method = make_world(on_event=trail.append)
        assert method.push_retries == 0
        result = decide(env, method)
        assert result.retries == 0
        assert not trail
        assert counter(env, "push.sent") == 2  # exactly one push per device


class TestFailPolicyUnderTotalLoss:
    def test_total_push_loss_blocks_every_command(self):
        plan = FaultPlan(seed=5, push_loss=1.0)
        scenario = build_scenario("apartment", "echo", deployment=0, seed=11,
                                  owner_count=2, fault_plan=plan)
        SevenDayWorkload(scenario).run(3, 2)
        scenario.speaker.settle_all()
        assert counter(scenario.env, "push.sent") == 0
        assert counter(scenario.env, "push.lost") > 0
        commands = scenario.guard.command_events()
        assert commands
        assert all(c.verdict is Verdict.TIMEOUT for c in commands)
        assert counter(scenario.env, "proxy.commands_released") == 0
        assert counter(scenario.env, "proxy.commands_blocked") > 0


# -- proximity cache / metrics ----------------------------------------------
class TestProximityCache:
    def test_zero_ttl_disables(self):
        cache = ProximityCache(ttl=0.0)
        cache.update("phone1", 1.0, True)
        assert not cache.enabled
        assert cache.fresh_proof(1.5) is None

    def test_keeps_freshest_entry_and_purges(self):
        cache = ProximityCache(ttl=10.0)
        cache.update("phone1", 5.0, True)
        cache.update("phone1", 3.0, False)  # older: ignored
        assert cache.entry("phone1") == (5.0, True)
        assert cache.fresh_proof(14.0) == "phone1"
        assert cache.fresh_proof(16.0) is None  # aged out

    def test_floor_check_applies_at_grant_time(self):
        cache = ProximityCache(ttl=10.0)
        cache.update("phone1", 5.0, True)
        assert cache.fresh_proof(6.0, lambda name: False) is None
        assert cache.fresh_proof(6.0, lambda name: True) == "phone1"


class TestMetrics:
    def test_percentile(self):
        assert math.isnan(percentile([], 50.0))
        assert percentile([3.0], 95.0) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_summarize_resilience(self):
        class Stub:
            def __init__(self, verdict, latency):
                self.verdict = verdict
                self.decision_latency = latency

        events = [
            Stub(Verdict.LEGITIMATE, 1.0),
            Stub(Verdict.LEGITIMATE, 2.0),
            Stub(Verdict.MALICIOUS, 3.0),
            Stub(Verdict.TIMEOUT, 5.0),
        ]
        counts = {"push_retry": 4, "offline_requery": 1,
                  "device_offline": 2, "degraded_grant": 1}
        summary = summarize_resilience(events, counts)
        assert summary.decisions == 4
        assert summary.timeouts == 1
        assert summary.degraded_grants == 1
        assert summary.live_grants == 1  # one of the two grants was degraded
        assert summary.retries == 5
        assert summary.offline_events == 2
        assert summary.availability == 0.75
        assert summary.latency_p50 == 2.5

    def test_availability_nan_when_no_decisions(self):
        assert math.isnan(summarize_resilience([]).availability)


# -- the resilience experiment ----------------------------------------------
class TestResilienceExperiment:
    def test_same_seed_reproduces_cell(self):
        cells = [
            run_resilience_cell("apartment", 0.3, "retry2", seed=7,
                                legit_count=6, malicious_count=5)
            for _ in range(2)
        ]
        assert cells[0].row() == cells[1].row()
        assert cells[0].faults_injected == cells[1].faults_injected > 0

    def test_retry_dominates_single_attempt_availability(self):
        single = run_resilience_cell("apartment", 0.5, "single", seed=7,
                                     legit_count=8, malicious_count=6)
        retry = run_resilience_cell("apartment", 0.5, "retry2", seed=7,
                                    legit_count=8, malicious_count=6)
        assert retry.summary.availability > single.summary.availability
        assert retry.summary.retries > 0
        assert retry.summary.timeouts < single.summary.timeouts

    def test_zero_loss_cell_runs_faultless(self):
        cell = run_resilience_cell("office", 0.0, "single", seed=3,
                                   legit_count=6, malicious_count=5)
        assert cell.faults_injected == 0
        assert cell.summary.timeouts == 0
        assert cell.summary.availability == 1.0

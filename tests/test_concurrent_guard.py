"""Concurrent multi-speaker guard: hold budget, decision coordinator,
overflow policies, and the single-flow byte-identity contract.

The concurrency machinery (query slots, batching, the global held-byte
budget) must be provably inert while one command is in flight, and
must shed load by the configured fail-open/fail-closed policy when the
budget overflows under fault-driven overload.
"""

from __future__ import annotations

import pytest

from repro.audio.speech import full_utterance_duration
from repro.core.config import VoiceGuardConfig
from repro.core.decision import (
    DecisionContext,
    DecisionCoordinator,
    DecisionMethod,
    DecisionResult,
    Verdict,
)
from repro.errors import ConfigError
from repro.experiments.scenarios import add_echo_speaker, build_scenario
from repro.experiments.workload import SevenDayWorkload
from repro.faults.plan import FaultPlan
from repro.net.proxy import HoldBudget
from repro.sim.simulator import Simulator


class _Record:
    def __init__(self, payload_len: int) -> None:
        self.payload_len = payload_len


class TestHoldBudget:
    def test_charge_landing_exactly_on_the_limit_fits(self):
        budget = HoldBudget(limit_bytes=100)
        assert budget.try_charge(60)
        assert budget.try_charge(40)  # 100/100: inclusive bound
        assert budget.held_bytes == 100
        assert budget.overflows == 0

    def test_one_byte_over_the_limit_refuses(self):
        budget = HoldBudget(limit_bytes=100)
        assert budget.try_charge(100)
        assert not budget.try_charge(1)
        assert budget.held_bytes == 100
        assert budget.overflows == 1

    def test_credit_frees_the_budget(self):
        budget = HoldBudget(limit_bytes=100)
        assert budget.try_charge(70)
        assert budget.try_charge(30)
        budget.credit([_Record(70), _Record(30)])
        assert budget.held_bytes == 0
        assert budget.held_records == 0
        assert budget.try_charge(100)

    def test_zero_limit_never_refuses(self):
        budget = HoldBudget(limit_bytes=0)
        assert budget.try_charge(10**9)
        assert budget.try_charge(10**9)
        assert budget.overflows == 0


class _StubMethod(DecisionMethod):
    """Holds every callback until the test fires it by hand."""

    timeout = 5.0

    def __init__(self) -> None:
        self.pending = []

    def decide(self, context, callback):
        self.pending.append((context, callback))

    def fire(self, index: int = 0, verdict: Verdict = Verdict.LEGITIMATE):
        context, callback = self.pending.pop(index)
        callback(DecisionResult(verdict=verdict))
        return context


def _context(window_id: int, speaker_ip: str, sim: Simulator,
             deadline: float = float("inf")) -> DecisionContext:
    return DecisionContext(window_id=window_id, speaker_ip=speaker_ip,
                           requested_at=sim.now, deadline=deadline)


class TestDecisionCoordinator:
    def test_one_report_settles_three_commands_across_two_speakers(self):
        sim = Simulator()
        method = _StubMethod()
        coordinator = DecisionCoordinator(method, sim=sim, batching=True)
        results = []
        for window_id, ip in ((1, "10.0.0.1"), (2, "10.0.0.2"), (3, "10.0.0.2")):
            coordinator.decide(
                _context(window_id, ip, sim),
                lambda r, w=window_id: results.append((w, r)),
            )
        # One underlying query carries all three pending commands.
        assert len(method.pending) == 1
        method.fire(verdict=Verdict.LEGITIMATE)
        assert [w for w, _ in results] == [1, 2, 3]
        primary, riders = results[0][1], [r for _, r in results[1:]]
        assert not primary.batched
        assert all(r.batched and r.verdict is Verdict.LEGITIMATE
                   for r in riders)
        assert coordinator.batched_settlements == 2

    def test_stale_inflight_query_is_not_joined(self):
        sim = Simulator()
        method = _StubMethod()
        coordinator = DecisionCoordinator(method, sim=sim, batching=True,
                                          batch_window=2.0)
        coordinator.decide(_context(1, "10.0.0.1", sim), lambda r: None)
        sim.run_for(3.0)  # older than the batch window
        coordinator.decide(_context(2, "10.0.0.2", sim), lambda r: None)
        assert len(method.pending) == 2
        assert coordinator.batched_settlements == 0

    def test_slot_limit_queues_and_drains_earliest_deadline_first(self):
        sim = Simulator()
        method = _StubMethod()
        coordinator = DecisionCoordinator(method, sim=sim, max_inflight=1)
        order = []
        coordinator.decide(_context(1, "a", sim, deadline=100.0),
                           lambda r: order.append(1))
        coordinator.decide(_context(2, "b", sim, deadline=50.0),
                           lambda r: order.append(2))
        coordinator.decide(_context(3, "c", sim, deadline=10.0),
                           lambda r: order.append(3))
        assert coordinator.queue_depth == 2
        assert coordinator.inflight_count == 1
        method.fire()  # window 1 settles; most urgent deadline (3) dispatches
        assert method.pending[0][0].window_id == 3
        method.fire()
        method.fire()
        assert order == [1, 3, 2]
        assert coordinator.queued_total == 2
        assert coordinator.queue_depth == 0

    def test_expired_queued_command_resolves_timeout_without_a_slot(self):
        sim = Simulator()
        method = _StubMethod()
        coordinator = DecisionCoordinator(method, sim=sim, max_inflight=1)
        results = []
        coordinator.decide(_context(1, "a", sim, deadline=100.0),
                           lambda r: results.append(r))
        coordinator.decide(_context(2, "b", sim, deadline=1.0),
                           lambda r: results.append(r))
        sim.run_for(2.0)  # window 2's deadline passes while it waits
        method.fire()
        assert len(results) == 2
        assert results[1].verdict is Verdict.TIMEOUT
        assert coordinator.expired_in_queue == 1
        assert not method.pending  # the expired command never dispatched

    def test_default_knobs_pass_straight_through(self):
        sim = Simulator()
        method = _StubMethod()
        coordinator = DecisionCoordinator(method, sim=sim)
        for window_id in range(5):
            coordinator.decide(_context(window_id, "a", sim), lambda r: None)
        assert len(method.pending) == 5  # nothing queued, nothing batched
        assert coordinator.queued_total == 0
        assert coordinator.batched_settlements == 0


class TestConfigValidation:
    def test_negative_concurrency_knobs_rejected(self):
        with pytest.raises(ConfigError):
            VoiceGuardConfig(max_concurrent_queries=-1)
        with pytest.raises(ConfigError):
            VoiceGuardConfig(held_byte_budget=-1)

    def test_overflow_policy_follows_fail_open_unless_overridden(self):
        assert not VoiceGuardConfig().overflow_releases
        assert VoiceGuardConfig(fail_open=True).overflow_releases
        assert VoiceGuardConfig(overflow_fail_open=True).overflow_releases
        assert not VoiceGuardConfig(
            fail_open=True, overflow_fail_open=False
        ).overflow_releases


def _speak_once(scenario, rng_name="overload"):
    env = scenario.env
    owner = scenario.owners[0]
    rng = env.rng.stream(rng_name)
    command = scenario.corpus.sample(rng)
    duration = full_utterance_duration(command, rng)
    utterance = owner.speak(command.text, duration)
    env.play_utterance(utterance, owner.device_position())
    env.sim.run_for(duration + 30.0)


class TestOverflowUnderFaults:
    @pytest.mark.parametrize("fail_open", [True, False])
    def test_budget_overflow_under_total_push_loss(self, fail_open):
        # 100% push loss: the decision can never resolve, so held bytes
        # accumulate against a budget smaller than one command's records
        # and the overflow policy must shed the window.
        config = VoiceGuardConfig(held_byte_budget=600,
                                  overflow_fail_open=fail_open)
        scenario = build_scenario(
            "apartment", "echo", seed=21, config=config,
            fault_plan=FaultPlan(seed=9, push_loss=1.0),
            with_floor_tracking=False,
        )
        _speak_once(scenario)
        handler = scenario.guard.handler
        assert handler.overflow_resolutions > 0
        event = scenario.guard.command_events()[-1]
        # Overflow resolution follows the max-hold failsafe convention:
        # the window resolves without a verdict.
        assert event.verdict is None
        if fail_open:
            assert handler.commands_released == 1
            assert handler.commands_blocked == 0
            assert event.released_at is not None
        else:
            assert handler.commands_released == 0
            assert handler.commands_blocked == 1
            assert event.discarded_at is not None
        snapshot = scenario.env.obs.metrics.snapshot()
        assert snapshot["counters"]["proxy.hold_overflows"] > 0
        # Shedding the window credits its held bytes back.
        assert snapshot["gauges"]["proxy.held_bytes"]["value"] == 0.0


class TestMultiSpeakerIntegration:
    def test_one_utterance_settles_every_speaker_with_one_query(self):
        config = VoiceGuardConfig(max_concurrent_queries=2,
                                  decision_batching=True)
        scenario = build_scenario("apartment", "echo", seed=31, config=config,
                                  with_floor_tracking=False)
        add_echo_speaker(scenario)
        add_echo_speaker(scenario)
        scenario.settle()
        _speak_once(scenario, "multi")
        events = scenario.guard.command_events()
        assert len(events) == 3
        assert len({e.speaker_ip for e in events}) == 3
        assert all(e.verdict is Verdict.LEGITIMATE for e in events)
        # One phone report settled all three speakers' copies.
        assert scenario.guard.rssi_method.queries_issued == 1
        assert scenario.guard.coordinator.batched_settlements == 2

    def test_second_echo_requires_echo_scenario(self):
        from repro.errors import WorkloadError

        scenario = build_scenario("office", "google", seed=5,
                                  with_floor_tracking=False)
        with pytest.raises(WorkloadError):
            add_echo_speaker(scenario)


class TestSingleFlowByteIdentity:
    def test_knobs_on_vs_off_identical_event_streams(self):
        # The PR's core contract: with one command in flight at a time,
        # slots + batching + budget change nothing — not an event field,
        # not the sim clock.
        streams, clocks = [], []
        for config in (
            VoiceGuardConfig(),
            VoiceGuardConfig(max_concurrent_queries=2,
                             decision_batching=True,
                             held_byte_budget=65_536),
        ):
            scenario = build_scenario("apartment", "echo", seed=17,
                                      config=config)
            SevenDayWorkload(scenario).run(4, 3)
            streams.append(scenario.guard.log.event_stream())
            clocks.append(scenario.sim.now)
        assert streams[0] == streams[1]
        assert clocks[0] == clocks[1]

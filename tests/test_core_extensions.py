"""Tests for the Section-VII extensions: adaptive signature learning
and the extensible decision-method framework."""

from __future__ import annotations

import pytest

from repro.audio.speech import full_utterance_duration
from repro.core.decision import DecisionContext, DecisionResult, Verdict
from repro.core.methods import (
    AllOfMethod,
    AllowListMethod,
    AnyOfMethod,
    QuietHoursMethod,
    QuietWindow,
)
from repro.core.signature_learning import SignatureLearner
from repro.errors import ConfigError
from repro.experiments.scenarios import build_scenario
from repro.speakers.base import InteractionOutcome


def _ctx(now: float = 0.0) -> DecisionContext:
    return DecisionContext(window_id=1, speaker_ip="x", requested_at=now)


class _StubMethod:
    """Immediate-verdict method for combinator tests."""

    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        self.calls = 0

    def decide(self, context, callback):
        self.calls += 1
        callback(DecisionResult(verdict=self.verdict))


class TestCombinators:
    def _run(self, method):
        results = []
        method.decide(_ctx(), results.append)
        assert len(results) == 1
        return results[0]

    @pytest.mark.parametrize("verdicts,expected", [
        ((Verdict.LEGITIMATE, Verdict.LEGITIMATE), Verdict.LEGITIMATE),
        ((Verdict.LEGITIMATE, Verdict.MALICIOUS), Verdict.MALICIOUS),
        ((Verdict.MALICIOUS, Verdict.MALICIOUS), Verdict.MALICIOUS),
        ((Verdict.LEGITIMATE, Verdict.TIMEOUT), Verdict.TIMEOUT),
        ((Verdict.MALICIOUS, Verdict.TIMEOUT), Verdict.MALICIOUS),
    ])
    def test_all_of_truth_table(self, verdicts, expected):
        method = AllOfMethod([_StubMethod(v) for v in verdicts])
        assert self._run(method).verdict is expected

    @pytest.mark.parametrize("verdicts,expected", [
        ((Verdict.LEGITIMATE, Verdict.MALICIOUS), Verdict.LEGITIMATE),
        ((Verdict.MALICIOUS, Verdict.MALICIOUS), Verdict.MALICIOUS),
        ((Verdict.MALICIOUS, Verdict.TIMEOUT), Verdict.TIMEOUT),
        ((Verdict.TIMEOUT, Verdict.LEGITIMATE), Verdict.LEGITIMATE),
    ])
    def test_any_of_truth_table(self, verdicts, expected):
        method = AnyOfMethod([_StubMethod(v) for v in verdicts])
        assert self._run(method).verdict is expected

    def test_empty_combinators_rejected(self):
        with pytest.raises(ConfigError):
            AllOfMethod([])
        with pytest.raises(ConfigError):
            AnyOfMethod([])

    def test_allow_list_flag(self):
        assert self._run(AllowListMethod(True)).verdict is Verdict.LEGITIMATE
        assert self._run(AllowListMethod(False)).verdict is Verdict.MALICIOUS


class TestQuietHours:
    def test_blocks_inside_window(self, sim):
        method = QuietHoursMethod(sim, [QuietWindow(0.0, 3600.0)])
        results = []
        method.decide(_ctx(), results.append)
        assert results[0].verdict is Verdict.MALICIOUS
        assert method.blocked_by_schedule == 1

    def test_allows_outside_window(self, sim):
        sim.run_until(7200.0)
        method = QuietHoursMethod(sim, [QuietWindow(0.0, 3600.0)])
        results = []
        method.decide(_ctx(), results.append)
        assert results[0].verdict is Verdict.LEGITIMATE

    def test_wraps_daily(self, sim):
        sim.run_until(86400.0 + 100.0)  # next day, inside the window
        method = QuietHoursMethod(sim, [QuietWindow(0.0, 3600.0)])
        results = []
        method.decide(_ctx(), results.append)
        assert results[0].verdict is Verdict.MALICIOUS

    def test_invalid_window_rejected(self, sim):
        with pytest.raises(ConfigError):
            QuietWindow(10.0, 5.0)
        with pytest.raises(ConfigError):
            QuietHoursMethod(sim, [])

    def test_composes_with_rssi_semantics(self, sim):
        # AllOf(quiet-hours, always-allow): inside quiet hours blocks.
        method = AllOfMethod([
            QuietHoursMethod(sim, [QuietWindow(0.0, 3600.0)]),
            AllowListMethod(True),
        ])
        results = []
        method.decide(_ctx(), results.append)
        assert results[0].verdict is Verdict.MALICIOUS


class TestSignatureLearnerUnit:
    def _feed(self, learner, flow_id, lengths, now=0.0):
        from repro.net.addresses import endpoint
        from repro.net.packet import Packet, Protocol
        from repro.net.proxy import ProxiedFlow

        flow = ProxiedFlow(
            flow_id=flow_id, protocol=Protocol.TCP,
            client=endpoint("192.168.1.200", 50000),
            server=endpoint("54.1.1.1", 443),
        )
        for length in lengths:
            packet = Packet(src=flow.client, dst=flow.server,
                            protocol=Protocol.TCP, payload_len=length)
            learner.observe_confirmed_flow(flow, packet, now)

    def test_adopts_after_confirmations(self):
        learner = SignatureLearner(prefix_length=4, confirmations=3)
        pattern = [10, 20, 30, 40]
        for flow_id in range(2):
            self._feed(learner, flow_id, pattern)
        assert learner.active is None
        self._feed(learner, 2, pattern)
        assert learner.active is not None
        assert learner.active.lengths == (10, 20, 30, 40)

    def test_disagreeing_flows_do_not_adopt(self):
        learner = SignatureLearner(prefix_length=4, confirmations=3)
        for flow_id, last in enumerate((40, 41, 42)):
            self._feed(learner, flow_id, [10, 20, 30, last])
        assert learner.active is None

    def test_relearns_on_change(self):
        learner = SignatureLearner(prefix_length=4, confirmations=2)
        for flow_id in range(2):
            self._feed(learner, flow_id, [1, 2, 3, 4])
        assert learner.active.lengths == (1, 2, 3, 4)
        for flow_id in range(10, 12):
            self._feed(learner, flow_id, [5, 6, 7, 8])
        assert learner.active.lengths == (5, 6, 7, 8)
        assert [s.lengths for s in learner.history] == [(1, 2, 3, 4)]

    def test_extra_packets_ignored_per_flow(self):
        learner = SignatureLearner(prefix_length=4, confirmations=1)
        self._feed(learner, 1, [1, 2, 3, 4, 999, 999])
        assert learner.active.lengths == (1, 2, 3, 4)

    def test_matching_helpers(self):
        learner = SignatureLearner(prefix_length=4, confirmations=1)
        self._feed(learner, 1, [1, 2, 3, 4])
        assert learner.matches([1, 2, 3, 4])
        assert not learner.matches([1, 2, 3, 5])

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            SignatureLearner(prefix_length=2)
        with pytest.raises(ConfigError):
            SignatureLearner(confirmations=0)


class TestAdaptiveSignatureEndToEnd:
    def test_guard_survives_firmware_signature_change(self):
        """The Section-VII scenario: a firmware update changes the
        connect signature; the learner re-learns it from DNS-confirmed
        reconnects and non-DNS reconnects become trackable again."""
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=71,
            owner_count=1, with_floor_tracking=False,
        )
        guard, speaker, env = scenario.guard, scenario.speaker, scenario.env
        learner = SignatureLearner(prefix_length=16, confirmations=2)
        guard.recognition.signature_learner = learner
        owner = scenario.owners[0]
        owner.teleport(env.testbed.device_point(5).offset(dz=-1.0))

        # Firmware update: new connect sequence.
        new_signature = (99, 45, 700, 140, 80, 140, 190, 80,
                         140, 80, 140, 80, 140, 70, 45, 45)
        speaker.connect_signature = new_signature

        # Churn the connection until the learner has re-learned: the
        # Echo re-resolves DNS on about half of its reconnects.
        for _ in range(12):
            if speaker._conn is not None and speaker._conn.is_established:
                speaker._conn.abort("churn")
            env.sim.run_for(8.0)
            if learner.active is not None:
                break
        assert learner.active is not None
        assert learner.active.lengths == new_signature

        # Force a silent (non-DNS) reconnect and verify re-identification
        # through the *learned* signature.
        state = guard.recognition.speaker_state(speaker.ip)
        speaker.DNS_REQUERY_PROBABILITY = 0.0
        speaker._conn.abort("silent")
        env.sim.run_for(8.0)
        assert state.avs_ip is not None

        # And a command still gets guarded end to end.
        rng = env.rng.stream("adaptive")
        command = scenario.corpus.sample(rng)
        duration = full_utterance_duration(command, rng)
        env.play_utterance(owner.speak(command.text, duration), owner.device_position())
        env.sim.run_for(duration + 18.0)
        record = list(speaker.interactions.values())[-1]
        record.settle()
        assert record.outcome is InteractionOutcome.EXECUTED
        checked = [e for e in guard.log.commands() if e.verdict is not None]
        assert checked

"""End-to-end integration tests: the full guard pipeline.

These drive complete scenarios — environment, network, speaker, cloud,
guard — and assert the paper's security properties hold end to end.
"""

from __future__ import annotations

import pytest

from repro.attacks.base import ClonedVoiceAttack
from repro.attacks.replay import ReplayAttack
from repro.audio.voiceprint import UtteranceSource
from repro.core.decision import Verdict
from repro.core.events import TrafficClass
from repro.experiments.scenarios import build_scenario
from repro.speakers.base import InteractionOutcome


@pytest.fixture(scope="module")
def echo_scenario():
    return build_scenario(
        "house", "echo", deployment=0, seed=41,
        owner_count=1, with_floor_tracking=False,
    )


def only_new_interaction(scenario, before):
    """The one interaction the speaker opened since ``before``, settled."""
    new = [scenario.speaker.interactions[i]
           for i in scenario.speaker.interactions if i not in before]
    assert len(new) == 1
    new[0].settle()
    return new[0]


def issue_legit(scenario, rng_name="itest"):
    env = scenario.env
    scenario.owners[0].teleport(env.testbed.standing_point(5))
    before = set(scenario.speaker.interactions)
    duration = scenario.speak_command(env.rng.stream(rng_name))
    env.sim.run_for(duration + 18.0)
    return only_new_interaction(scenario, before)


def launch_while_away(scenario, attack, text, duration, position, wait):
    """With the owner in the kitchen, ``attack`` says ``text`` at
    ``position``; returns the interaction it opened after ``wait`` s."""
    env = scenario.env
    scenario.owners[0].teleport(env.testbed.standing_point(30))  # kitchen
    env.sim.run_for(2.0)
    before = set(scenario.speaker.interactions)
    attack.launch(text, duration, position)
    env.sim.run_for(wait)
    return only_new_interaction(scenario, before)


def issue_attack(scenario, attack, rng_name="iatk"):
    command, duration = scenario.draw_command(scenario.env.rng.stream(rng_name))
    return launch_while_away(scenario, attack, command.text, duration,
                             scenario.env.testbed.device_point(3), duration + 18.0)


def cloned_voice(scenario, rng_name, source):
    return ClonedVoiceAttack(scenario.env, scenario.env.rng.stream(rng_name),
                             scenario.owners[0].voiceprint, source)


class TestEchoEndToEnd:
    def test_legit_command_executes(self, echo_scenario):
        record = issue_legit(echo_scenario)
        assert record.outcome is InteractionOutcome.EXECUTED

    def test_replay_attack_blocked_and_session_killed(self, echo_scenario):
        scenario = echo_scenario
        attack = ReplayAttack(
            scenario.env, scenario.env.rng.stream("replay"),
            victim=scenario.owners[0].voiceprint,
        )
        violations_before = len(scenario.avs_cloud.stats.tls_violations)
        record = issue_attack(scenario, attack)
        assert record.outcome is InteractionOutcome.BLOCKED
        assert len(scenario.avs_cloud.stats.tls_violations) == violations_before + 1

    def test_speaker_recovers_after_block(self, echo_scenario):
        record = issue_legit(echo_scenario, "after-block")
        assert record.outcome is InteractionOutcome.EXECUTED

    def test_synthesis_attack_blocked(self, echo_scenario):
        attack = cloned_voice(echo_scenario, "synth", UtteranceSource.SYNTHESIS)
        record = issue_attack(echo_scenario, attack)
        assert record.source is UtteranceSource.SYNTHESIS
        assert record.outcome is InteractionOutcome.BLOCKED

    def test_inaudible_attack_blocked(self, echo_scenario):
        attack = cloned_voice(echo_scenario, "ultra", UtteranceSource.INAUDIBLE)
        record = issue_attack(echo_scenario, attack)
        assert record.source is UtteranceSource.INAUDIBLE
        assert record.outcome is InteractionOutcome.BLOCKED

    def test_laser_attack_blocked(self, echo_scenario):
        scenario = echo_scenario
        attack = cloned_voice(scenario, "laser", UtteranceSource.LASER)
        record = launch_while_away(scenario, attack, "unlock the door please now", 3.0,
                                   scenario.env.speaker_beacon.position, 20.0)
        assert record.source is UtteranceSource.LASER
        assert record.outcome is InteractionOutcome.BLOCKED

    def test_remote_playback_blocked(self, echo_scenario):
        scenario = echo_scenario
        tv = cloned_voice(scenario, "tv", UtteranceSource.REMOTE_PLAYBACK)
        tv_position = scenario.env.speaker_beacon.position.offset(dx=1.5)
        record = launch_while_away(scenario, tv, "order ten pizzas right now", 3.5,
                                   tv_position, 22.0)
        assert record.source is UtteranceSource.REMOTE_PLAYBACK
        assert record.outcome is InteractionOutcome.BLOCKED

    def test_guard_event_log_consistency(self, echo_scenario):
        log = echo_scenario.guard.log
        for event in log.commands():
            if event.verdict is Verdict.LEGITIMATE:
                assert event.released_at is not None
            elif event.verdict is Verdict.MALICIOUS:
                assert event.discarded_at is not None

    def test_response_windows_never_held_long(self, echo_scenario):
        responses = [e for e in echo_scenario.guard.log.events
                     if e.classification is TrafficClass.RESPONSE]
        assert responses, "expected response windows from executed commands"
        for event in responses:
            assert event.hold_duration is not None
            assert event.hold_duration < 0.5

    def test_avs_tracking_survives_silent_reconnects(self, echo_scenario):
        scenario = echo_scenario
        state = scenario.guard.recognition.speaker_state(scenario.speaker.ip)
        for _ in range(4):
            scenario.speaker._conn.abort("chaos")
            scenario.env.sim.run_for(8.0)
        assert scenario.speaker.connected
        assert state.avs_ip is not None
        record = issue_legit(scenario, "post-chaos")
        assert record.outcome is InteractionOutcome.EXECUTED


class TestGoogleEndToEnd:
    @pytest.fixture(scope="class")
    def google_scenario(self):
        return build_scenario(
            "apartment", "google", deployment=0, seed=43,
            owner_count=1, with_floor_tracking=False,
        )

    def test_legit_commands_execute_on_both_transports(self, google_scenario):
        scenario = google_scenario
        outcomes = []
        transports = set()
        for index in range(6):
            record = issue_legit(scenario, f"g{index}")
            outcomes.append(record.outcome)
            transports.add(record.meta.get("transport"))
        assert all(o is InteractionOutcome.EXECUTED for o in outcomes)
        assert transports == {"tcp", "quic"}

    def test_attacks_blocked_on_both_transports(self, google_scenario):
        scenario = google_scenario
        attack = ReplayAttack(
            scenario.env, scenario.env.rng.stream("greplay"),
            victim=scenario.owners[0].voiceprint,
        )
        env = scenario.env
        away = env.testbed.standing_point(45)
        spot = env.testbed.device_point(5)
        transports = set()
        for index in range(6):
            scenario.owners[0].teleport(away)
            env.sim.run_for(2.0)
            command, duration = scenario.draw_command(env.rng.stream(f"gatk{index}"))
            before = set(scenario.speaker.interactions)
            attack.launch(command.text, duration, spot)
            env.sim.run_for(duration + 18.0)
            record = only_new_interaction(scenario, before)
            assert record.outcome is InteractionOutcome.BLOCKED
            transports.add(record.meta.get("transport"))
        assert transports == {"tcp", "quic"}


class TestMultiSpeakerProtection:
    def test_guard_covers_two_speakers_at_once(self):
        # One guard instance protecting an Echo and a Mini side by side.
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=47,
            owner_count=1, with_floor_tracking=False,
        )
        env = scenario.env
        from repro.experiments.scenarios import add_second_speaker
        google = add_second_speaker(scenario, "google")
        scenario.owners[0].teleport(env.testbed.standing_point(5))
        # Both speakers hear the same command (they share the room).
        duration = scenario.speak_command(env.rng.stream("multi"))
        env.sim.run_for(duration + 20.0)
        echo_records = scenario.speaker.settle_all()
        google_records = google.settle_all()
        assert any(r.outcome is InteractionOutcome.EXECUTED for r in echo_records)
        assert any(r.outcome is InteractionOutcome.EXECUTED for r in google_records)


class TestFailureModes:
    def test_decision_timeout_fail_closed(self):
        from repro.faults.plan import FaultPlan
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=53,
            owner_count=1, with_floor_tracking=False,
            fault_plan=FaultPlan(seed=5, push_loss=1.0),
        )
        record = issue_legit(scenario, "timeout-test")
        # Every push is lost, so no device answers within the decision
        # timeout and even the owner's own command is (safely) blocked.
        assert record.outcome is InteractionOutcome.BLOCKED
        timeouts = [e for e in scenario.guard.log.events if e.verdict is Verdict.TIMEOUT]
        assert timeouts

    def test_unregistered_guard_blocks_everything(self):
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=61,
            owner_count=1, with_floor_tracking=False, calibrate=False,
        )
        scenario.guard.registry.unregister(scenario.devices[0].name)
        record = issue_legit(scenario, "no-devices")
        assert record.outcome is InteractionOutcome.BLOCKED

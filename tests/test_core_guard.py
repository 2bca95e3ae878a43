"""Guard-level behaviour tests: window lifecycle, holding semantics,
failsafes, and the guard facade's wiring."""

from __future__ import annotations

import pytest

from repro.audio.speech import full_utterance_duration
from repro.core.decision import Verdict
from repro.core.events import TrafficClass
from repro.core.handler import MAX_HOLD
from repro.core.recognition import TrafficRecognition
from repro.errors import ConfigError
from repro.experiments.scenarios import build_scenario
from repro.net.packet import Protocol
from repro.speakers import signatures as sig
from repro.speakers.base import InteractionOutcome


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(
        "house", "echo", deployment=0, seed=101,
        owner_count=1, with_floor_tracking=False,
    )


def speak(scenario, rng_name, near=True):
    env = scenario.env
    owner = scenario.owners[0]
    point = 5 if near else 30
    owner.teleport(env.testbed.device_point(point).offset(dz=-1.0))
    env.sim.run_for(1.0)
    rng = env.rng.stream(rng_name)
    command = scenario.corpus.sample(rng)
    duration = full_utterance_duration(command, rng)
    utterance = owner.speak(command.text, duration)
    env.play_utterance(utterance, owner.device_position())
    env.sim.run_for(duration + 18.0)


class TestWindowLifecycle:
    def test_signature_spike_classified_unknown_and_released(self, scenario):
        # The boot connection's signature spike must never be held for
        # a decision: it classifies UNKNOWN and is released untouched.
        commands = scenario.guard.log.commands()
        first_command_at = commands[0].opened_at if commands else float("inf")
        boot_windows = [
            e for e in scenario.guard.log.events if e.opened_at < first_command_at
        ]
        assert boot_windows
        for event in boot_windows:
            assert event.classification in (TrafficClass.UNKNOWN, TrafficClass.RESPONSE)
            assert event.verdict is None

    def test_command_window_fast_classification(self, scenario):
        speak(scenario, "lifecycle1")
        event = scenario.guard.log.commands()[-1]
        assert event.classify_packet_count <= 5
        assert event.classified_at - event.opened_at < 0.2

    def test_heartbeats_never_open_windows(self, scenario):
        before = len(scenario.guard.log.events)
        scenario.env.sim.run_for(95.0)  # three heartbeats
        assert len(scenario.guard.log.events) == before

    def test_windows_carry_flow_protocol(self, scenario):
        for event in scenario.guard.log.events:
            assert event.protocol in ("tcp", "udp")

    def test_rssi_evidence_recorded(self, scenario):
        speak(scenario, "lifecycle2")
        event = scenario.guard.log.commands()[-1]
        assert event.verdict is Verdict.LEGITIMATE
        assert event.rssi_reports
        assert event.rssi_reports[0].sample.rssi > -15


class TestGuardFacade:
    def test_summary_counts_consistent(self, scenario):
        summary = scenario.guard.summary()
        assert summary["commands"] <= summary["windows"]
        assert summary["released"] + summary["blocked"] <= summary["commands"] + 1

    def test_floor_check_defaults_open(self, scenario):
        # No tracker installed in this scenario.
        assert scenario.guard._floor_ok("phone1")

    def test_protect_rejects_double_tap_silently(self):
        # Protecting two speakers shares one proxy host.
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=103,
            owner_count=1, calibrate=False, with_floor_tracking=False,
        )
        assert scenario.speaker.ip in scenario.guard._protected

    def test_events_property_copies(self, scenario):
        events = scenario.guard.events
        events.clear()
        assert len(scenario.guard.log.events) > 0

    def test_dns_snoop_sees_datagrams_only_and_learns_the_avs_ip(self, monkeypatch):
        snooped, learned = [], []
        real_snoop = TrafficRecognition.observe_snoop

        def observe_snoop(recognition, packet):
            snooped.append(packet.protocol)
            real_snoop(recognition, packet)
            if packet.meta.get("dns_response") == sig.AVS_DOMAIN:
                state = recognition._speakers[packet.dst.ip]
                learned.append((state.avs_ip, state.avs_ip_source))

        monkeypatch.setattr(TrafficRecognition, "observe_snoop", observe_snoop)
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=104,
            owner_count=1, calibrate=False, with_floor_tracking=False,
        )
        # Boot: DNS over UDP, then the AVS connection through the tap
        # (whose connect signature later re-confirms the same IP).
        assert scenario.guard.proxy.open_flows
        assert set(snooped) == {Protocol.UDP}
        avs_ip = scenario.dns_server.record_for(sig.AVS_DOMAIN).current()
        assert learned == [(avs_ip, "dns")]


class TestLateRegistration:
    """Devices enrolled after enable_floor_tracking must be trackable
    with an explicit starting floor (regression: they were silently
    assumed to be on the speaker's floor)."""

    @pytest.fixture(scope="class")
    def tracked_scenario(self):
        return build_scenario(
            "house", "echo", deployment=0, seed=103, owner_count=1,
        )

    def test_late_device_with_initial_floor(self, tracked_scenario):
        scenario = tracked_scenario
        env = scenario.env
        person = env.add_person("late-owner", scenario.owners[0].position)
        device = env.add_smartphone("late-phone", person)
        scenario.guard.register_device(device, threshold=-8.0, initial_floor=1)
        assert scenario.guard.floor_tracker.floor_of("late-phone") == 1

    @pytest.mark.parametrize("floor", [-4, 2])
    def test_late_device_on_a_floor_outside_the_building_is_refused(
            self, tracked_scenario, floor):
        scenario = tracked_scenario
        env = scenario.env
        person = env.add_person(f"refused-owner{floor}", scenario.owners[0].position)
        device = env.add_smartphone(f"refused-phone{floor}", person)
        with pytest.raises(ConfigError, match="initial_floor"):
            scenario.guard.register_device(device, threshold=-8.0, initial_floor=floor)
        assert scenario.guard.floor_tracker.floor_of(device.name) is None
        assert device.name not in {e.device.name for e in scenario.guard.registry.entries()}

    def test_late_device_defaults_to_speaker_floor(self, tracked_scenario):
        scenario = tracked_scenario
        env = scenario.env
        person = env.add_person("late-owner2", scenario.owners[0].position)
        device = env.add_smartphone("late-phone2", person)
        scenario.guard.register_device(device, threshold=-8.0)
        tracker = scenario.guard.floor_tracker
        assert tracker.floor_of("late-phone2") == tracker.speaker_floor


class TestMaxHoldFailsafe:
    def test_failsafe_resolves_stuck_window(self):
        # A decision method that never answers: the max-hold failsafe
        # must still resolve the window (fail-closed).
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=105,
            owner_count=1, with_floor_tracking=False,
        )

        class BlackHoleMethod:
            def decide(self, context, callback):
                pass  # never calls back

        scenario.guard.decision.method = BlackHoleMethod()
        speak(scenario, "failsafe", near=True)
        scenario.env.sim.run_for(MAX_HOLD + 5.0)
        event = scenario.guard.log.commands()[-1]
        assert event.discarded_at is not None  # fail-closed
        record = list(scenario.speaker.interactions.values())[-1]
        record.settle()
        assert record.outcome is InteractionOutcome.BLOCKED


class TestGoogleWindows:
    def test_google_first_packet_is_decision_point(self):
        scenario = build_scenario(
            "apartment", "google", deployment=0, seed=107,
            owner_count=1, with_floor_tracking=False,
        )
        speak(scenario, "g1")
        event = scenario.guard.log.commands()[-1]
        assert event.classify_packet_count == 1

    def test_blocked_quic_flow_keeps_dropping(self):
        scenario = build_scenario(
            "apartment", "google", deployment=0, seed=109,
            owner_count=1, with_floor_tracking=False,
        )
        env = scenario.env
        # Force QUIC for determinism.
        scenario.speaker.traffic.QUIC_PROBABILITY = 1.0
        # Owner is away; a replayed recording plays in the speaker room.
        owner = scenario.owners[0]
        owner.teleport(env.testbed.device_point(45).offset(dz=-1.0))
        env.sim.run_for(1.0)
        from repro.attacks.replay import ReplayAttack
        attack = ReplayAttack(env, env.rng.stream("g2atk"), victim=owner.voiceprint)
        rng = env.rng.stream("g2")
        command = scenario.corpus.sample(rng)
        duration = full_utterance_duration(command, rng)
        attack.launch(command.text, duration, env.testbed.device_point(5))
        env.sim.run_for(duration + 18.0)
        record = list(scenario.speaker.interactions.values())[-1]
        record.settle()
        assert record.meta["transport"] == "quic"
        assert record.outcome is InteractionOutcome.BLOCKED
        assert scenario.google_cloud.stats.commands_executed == 0
        blocked_flow = [f for f in scenario.guard.proxy.open_flows.values()
                        if f.records_discarded > 0]
        assert blocked_flow

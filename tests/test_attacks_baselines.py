"""Tests for attacker models and baseline defenses."""

from __future__ import annotations

import pytest

from repro.attacks.base import ClonedVoiceAttack
from repro.attacks.replay import ReplayAttack
from repro.audio.voiceprint import UtteranceSource, VoicePrint, live_utterance
from repro.baselines.firewall import FirewallTap
from repro.baselines.naive_spike import NaiveSpikeDetector
from repro.core.events import TrafficClass
from repro.home.environment import HomeEnvironment
from repro.radio.geometry import Point
from repro.radio.testbeds import apartment_testbed


@pytest.fixture
def env():
    return HomeEnvironment(apartment_testbed(), deployment=0, seed=21)


@pytest.fixture
def victim(rng):
    return VoicePrint.create("owner", rng)


class TestReplayAttack:
    def test_builds_library_on_demand(self, env, victim, rng):
        attack = ReplayAttack(env, rng, victim)
        utterance = attack.craft("open the garage", 2.0)
        assert utterance.source is UtteranceSource.REPLAY
        assert attack.library_size == 1

    def test_reuses_existing_recording(self, env, victim, rng):
        attack = ReplayAttack(env, rng, victim)
        attack.record_sample("open the garage", 2.0)
        attack.craft("open the garage", 2.0)
        assert attack.library_size == 1

    def test_capture_overheard_utterance(self, env, victim, rng):
        attack = ReplayAttack(env, rng, victim)
        overheard = live_utterance("disarm alarm", 2.0, victim, rng)
        attack.capture(overheard)
        crafted = attack.craft("disarm alarm", 2.0)
        assert crafted.text == "disarm alarm"

    def test_launch_in_speaker_room_is_heard(self, env, victim, rng):
        attack = ReplayAttack(env, rng, victim)
        result = attack.launch("hello", 1.5, Point(3, 4, 1))
        assert result.heard_by_speaker
        assert result.utterance.source is UtteranceSource.REPLAY

    def test_launch_far_away_not_heard(self, env, victim, rng):
        attack = ReplayAttack(env, rng, victim)
        result = attack.launch("hello", 1.5, Point(9, 1, 1))
        assert not result.heard_by_speaker


class TestOtherAttacks:
    """The cloned-voice attacker under each of its four sources."""

    def test_synthesis_arbitrary_text(self, env, victim, rng):
        attack = ClonedVoiceAttack(env, rng, victim, UtteranceSource.SYNTHESIS)
        utterance = attack.craft("wire all my money away", 3.0)
        assert utterance.source is UtteranceSource.SYNTHESIS
        assert utterance.text == "wire all my money away"
        assert utterance.speaker_label == victim.speaker_name

    def test_inaudible_source_marked(self, env, victim, rng):
        attack = ClonedVoiceAttack(env, rng, victim, UtteranceSource.INAUDIBLE)
        assert attack.craft("hi", 1.0).source is UtteranceSource.INAUDIBLE

    def test_laser_targets_speaker_directly(self, env, victim, rng):
        attack = ClonedVoiceAttack(env, rng, victim, UtteranceSource.LASER)
        result = attack.launch("hi", 1.0, env.speaker_beacon.position)
        assert result.heard_by_speaker  # lands on the device itself
        assert result.utterance.source is UtteranceSource.LASER

    def test_remote_playback_from_fixed_device(self, env, victim, rng):
        tv_spot = env.speaker_beacon.position.offset(dx=1.0)
        attack = ClonedVoiceAttack(env, rng, victim, UtteranceSource.REMOTE_PLAYBACK)
        result = attack.launch("hi", 1.0, tv_spot)
        assert result.heard_by_speaker
        assert result.utterance.source is UtteranceSource.REMOTE_PLAYBACK


class TestNaiveSpikeDetector:
    def test_everything_is_a_command(self):
        detector = NaiveSpikeDetector()
        assert detector.classify_spike([77, 33, 50]) is TrafficClass.COMMAND

    def test_unnecessary_holds_counted(self):
        detector = NaiveSpikeDetector()
        spikes = [[277, 138, 131], [55, 77, 33], [61, 77, 33], [89, 77, 33]]
        assert detector.unnecessary_holds(spikes) == 3

    def test_evaluate_flags_all(self):
        detector = NaiveSpikeDetector()
        verdicts = detector.evaluate_interaction([[1], [2], [3]])
        assert all(v.would_hold for v in verdicts)


class TestFirewallTap:
    def test_spike_start_detection(self, sim):
        from repro.net.addresses import IPv4Address
        tap = FirewallTap("fw", IPv4Address("192.168.1.60"),
                          {IPv4Address("192.168.1.200")})
        assert tap._spike_starts(0.0)  # first packet ever
        tap._last_data_time = 0.0
        assert not tap._spike_starts(1.0)
        assert tap._spike_starts(10.0)

    def test_decide_callback_invoked_once_per_spike(self, sim):
        from repro.net.addresses import IPv4Address, Endpoint
        from repro.net.link import Network, Host
        from repro.net.packet import Packet, Protocol, TlsRecordType
        from repro.sim.random import RngHub
        network = Network(sim, RngHub(2))
        speaker = Host("speaker", IPv4Address("192.168.1.200"))
        cloud = Host("cloud", IPv4Address("54.1.1.1"))
        network.attach(speaker)
        network.attach(cloud)
        calls = []
        tap = FirewallTap("fw", IPv4Address("192.168.1.60"),
                          {speaker.ip}, decide=calls.append)
        network.attach(tap)
        network.install_tap(speaker.ip, tap)
        for _ in range(3):  # one spike of three packets
            speaker.send(Packet(
                src=Endpoint(speaker.ip, 50000), dst=Endpoint(cloud.ip, 443),
                protocol=Protocol.TCP, payload_len=100,
                tls_type=TlsRecordType.APPLICATION_DATA,
            ))
            sim.run_for(0.2)
        assert len(calls) == 1
        assert tap.packets_dropped == 3  # all dropped while deciding

    def test_block_window_expires(self, sim):
        from repro.net.addresses import IPv4Address
        tap = FirewallTap("fw", IPv4Address("192.168.1.60"), set())
        tap._state = "blocking"
        tap._blocking_until = 5.0

        class FakeNet:
            def __init__(self, sim):
                self.sim = sim
        tap.network = FakeNet(sim)
        sim.run_until(6.0)
        # After expiry the next client-data packet resets to idle; the
        # internal transition is exercised via intercept in integration
        # tests, here we just sanity-check the timestamp logic.
        assert sim.now > tap._blocking_until


class TestAttackBase:
    """The abstract Attack contract (attacks/base.py)."""

    def test_craft_is_abstract(self, env, rng):
        from repro.attacks.base import Attack

        with pytest.raises(NotImplementedError):
            Attack(env, rng).craft("hello", 1.0)

    def test_launch_records_a_result(self, env, victim, rng):
        from repro.attacks.base import Attack

        class CannedAttack(Attack):
            def craft(self, text, duration):
                return live_utterance(text, duration, victim, self.rng)

        attack = CannedAttack(env, rng)
        start = env.sim.now
        result = attack.launch("hello", 1.5, Point(3, 4, 1))
        assert result.launched_at == start
        assert result.heard_by_speaker
        assert result.utterance.text == "hello"
        assert not attack.launch("hello", 1.5, Point(9, 1, 1)).heard_by_speaker

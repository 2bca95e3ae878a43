"""Speaker traffic-model tests: signatures, interactions, clouds.

Integration-level behaviour (through the network and guard) is covered
in test_integration.py; these tests pin the traffic *grammar* itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audio.speech import full_utterance_duration
from repro.core.recognition import classify_echo_lengths
from repro.core.events import TrafficClass
from repro.experiments.scenarios import build_scenario
from repro.speakers import signatures as sig
from repro.speakers.base import InteractionOutcome
from repro.speakers.interaction import EchoTrafficModel, GoogleTrafficModel


@pytest.fixture
def echo_model(rng):
    return EchoTrafficModel(rng)


class TestSignatureConstants:
    def test_avs_signature_matches_paper(self):
        assert sig.AVS_CONNECT_SIGNATURE == (
            63, 33, 653, 131, 73, 131, 188, 73, 131, 73, 131, 73, 131, 77, 33, 33,
        )

    def test_heartbeat_matches_paper(self):
        assert sig.HEARTBEAT_LEN == 41
        assert sig.HEARTBEAT_PERIOD == 30.0

    def test_other_signatures_differ_from_avs(self):
        for domain, signature in sig.OTHER_AMAZON_SIGNATURES.items():
            assert tuple(signature) != sig.AVS_CONNECT_SIGNATURE[: len(signature)], domain

    def test_phase_markers(self):
        assert sig.PHASE1_MARKERS == (138, 75)
        assert sig.PHASE2_MARKER_PAIR == (77, 33)

    def test_filler_pools_avoid_markers(self):
        assert not set(sig.PHASE1_MARKERS) & set(sig.PHASE1_FILLER_POOL)
        assert not set(sig.PHASE2_MARKER_PAIR) & set(sig.PHASE2_PREFIX_POOL)
        assert not set(sig.PHASE1_MARKERS) & set(sig.PHASE2_PREFIX_POOL)


class TestEchoTrafficModel:
    def test_marker_variant_has_marker_in_first_five(self, rng):
        model = EchoTrafficModel(rng, anomalous_rate=0.0, marker_rate=1.0)
        for _ in range(30):
            script = model.command_phase(3.0)
            first5 = [r.length for r in script.records[:5]]
            assert any(length in sig.PHASE1_MARKERS for length in first5)
            assert script.variant == "marker"

    def test_fixed_variant_matches_a_fixed_pattern(self, rng):
        model = EchoTrafficModel(rng, anomalous_rate=0.0, marker_rate=0.0)
        for _ in range(30):
            script = model.command_phase(3.0)
            lengths = [r.length for r in script.records[:5]]
            assert sig.PHASE1_FIRST_RANGE[0] <= lengths[0] <= sig.PHASE1_FIRST_RANGE[1]
            assert tuple(lengths[1:5]) in sig.PHASE1_FIXED_PATTERNS

    def test_anomalous_variant_evades_recognizer(self, rng):
        model = EchoTrafficModel(rng, anomalous_rate=1.0)
        for _ in range(30):
            script = model.command_phase(3.0)
            lengths = [r.length for r in script.records[:7]]
            assert classify_echo_lengths(lengths) in (TrafficClass.UNKNOWN, None)

    def test_command_phase_covers_speech_plus_upload(self, echo_model):
        script = echo_model.command_phase(4.0)
        assert script.duration > 4.0  # upload spike comes after speech
        assert len(script.records) > 10

    def test_upload_records_are_large(self, echo_model):
        script = echo_model.command_phase(3.0)
        tail = [r.length for r in script.records[-4:]]
        low, high = sig.AUDIO_RECORD_RANGE
        assert all(low <= length <= high for length in tail)

    def test_record_offsets_monotonic(self, echo_model):
        script = echo_model.command_phase(5.0)
        offsets = [r.offset for r in script.records]
        assert offsets == sorted(offsets)

    def test_response_spike_has_marker_pair_in_first_seven(self, echo_model):
        for _ in range(50):
            spike = echo_model.response_spike()
            lengths = [r.length for r in spike[: sig.PHASE2_MARKER_MAX_INDEX]]
            found = any(
                (a, b) == sig.PHASE2_MARKER_PAIR
                for a, b in zip(lengths, lengths[1:])
            )
            assert found

    def test_response_plan_distribution(self, rng):
        model = EchoTrafficModel(rng)
        counts = [len(model.response_plan()) for _ in range(600)]
        mean = float(np.mean(counts))
        assert 1.0 <= mean <= 1.3  # paper saw ~1.1 response spikes/invocation
        assert max(counts) <= 3

    def test_forced_response_segments(self, echo_model):
        echo_model.forced_response_segments = [8, 9, 8]
        plan = echo_model.response_plan()
        assert [seg.words for seg in plan] == [8, 9, 8]

    def test_invalid_anomalous_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            EchoTrafficModel(rng, anomalous_rate=1.5)


class TestGoogleTrafficModel:
    def test_transport_mix(self, rng):
        model = GoogleTrafficModel(rng)
        picks = [model.pick_transport() for _ in range(500)]
        quic_fraction = picks.count("quic") / len(picks)
        assert 0.3 < quic_fraction < 0.6

    def test_upload_script_nonempty_and_ordered(self, rng):
        model = GoogleTrafficModel(rng)
        script = model.command_upload(3.0)
        assert len(script) >= 4
        offsets = [r.offset for r in script]
        assert offsets == sorted(offsets)


class TestEchoDotLifecycle:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(
            "house", "echo", deployment=0, seed=31,
            owner_count=1, with_floor_tracking=False, calibrate=False,
        )

    def test_boot_connects_and_signs(self, scenario):
        assert scenario.speaker.connected
        state = scenario.guard.recognition.speaker_state(scenario.speaker.ip)
        assert state.avs_ip is not None

    def test_heartbeats_flow(self, scenario):
        before = scenario.avs_cloud.stats.heartbeats_answered
        scenario.env.sim.run_for(65.0)
        assert scenario.avs_cloud.stats.heartbeats_answered >= before + 2

    def test_interaction_executes_and_responds(self, scenario):
        env = scenario.env
        owner = scenario.owners[0]
        owner.teleport(env.testbed.device_point(5).offset(dz=-1.0))
        command = scenario.corpus.sample(env.rng.stream("t"))
        duration = full_utterance_duration(command, env.rng.stream("t"))
        utterance = owner.speak(command.text, duration)
        env.play_utterance(utterance, owner.device_position())
        env.sim.run_for(duration + 20.0)
        records = [r for r in scenario.speaker.interactions.values()
                   if r.text == command.text]
        assert records and records[-1].outcome is InteractionOutcome.EXECUTED
        assert records[-1].responded_at is not None

    def test_reconnect_after_abort(self, scenario):
        env = scenario.env
        before = scenario.speaker.reconnect_count
        scenario.speaker._conn.abort("test-chaos")
        env.sim.run_for(6.0)
        assert scenario.speaker.reconnect_count == before + 1
        assert scenario.speaker.connected


class TestGoogleHomeLifecycle:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(
            "house", "google", deployment=0, seed=33,
            owner_count=1, with_floor_tracking=False, calibrate=False,
        )

    def test_idle_speaker_produces_no_sessions(self, scenario):
        assert scenario.speaker.sessions_opened == 0

    def test_command_opens_session_and_executes(self, scenario):
        env = scenario.env
        owner = scenario.owners[0]
        owner.teleport(env.testbed.device_point(5).offset(dz=-1.0))
        for _ in range(4):  # cover both transports probabilistically
            command = scenario.corpus.sample(env.rng.stream("g"))
            duration = full_utterance_duration(command, env.rng.stream("g"))
            utterance = owner.speak(command.text, duration)
            env.play_utterance(utterance, owner.device_position())
            env.sim.run_for(duration + 20.0)
        records = scenario.speaker.settle_all()
        executed = [r for r in records if r.outcome is InteractionOutcome.EXECUTED]
        assert len(executed) == 4
        assert scenario.speaker.sessions_opened == 4

    def test_dns_precedes_every_session(self, scenario):
        # The Mini resolves www.google.com for each on-demand session.
        assert scenario.speaker.dns.queries_sent >= scenario.speaker.sessions_opened


def _quic_source_ports(seed):
    """UDP source ports of two QUIC commands in a fresh house/google world."""
    scenario = build_scenario("house", "google", seed=seed, owner_count=1,
                              with_floor_tracking=False, calibrate=False)
    env, speaker = scenario.env, scenario.speaker
    speaker.traffic.QUIC_PROBABILITY = 1.0
    ports = []
    scenario.network.add_observer(
        lambda p, scope: ports.append(p.src.port)
        if p.src.ip == speaker.ip and p.dst.port == 443 else None)
    owner = scenario.owners[0]
    owner.teleport(env.testbed.device_point(5).offset(dz=-1.0))
    for _ in range(2):
        command = scenario.corpus.sample(env.rng.stream("g"))
        duration = full_utterance_duration(command, env.rng.stream("g"))
        env.play_utterance(owner.speak(command.text, duration), owner.device_position())
        env.sim.run_for(duration + 20.0)
    return sorted(set(ports))


def test_quic_source_ports_belong_to_the_world():
    first = _quic_source_ports(5)
    assert first == [52000, 52001]
    assert _quic_source_ports(5) == first

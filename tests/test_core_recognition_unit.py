"""Unit tests for TrafficRecognition's window machinery, driven by
hand-crafted flows and packets (no network, no speakers)."""

from __future__ import annotations

import itertools

import pytest

from repro.core.events import GuardLog, TrafficClass
from repro.core.recognition import (
    CLASSIFICATION_TIMEOUT, SpeakerProfile, TrafficRecognition,
)
from repro.net.addresses import IPv4Address, endpoint
from repro.net.packet import Packet, Protocol
from repro.net.proxy import ForwarderDecision, ProxiedFlow
from repro.obs.tracer import Observability
from repro.speakers import signatures as sig

SPEAKER_IP = IPv4Address("192.168.1.200")
AVS = endpoint("54.1.1.1", 443)
OTHER = endpoint("52.1.1.1", 443)

_flow_ids = itertools.count(10_000)


def make_flow(server=AVS, protocol=Protocol.TCP) -> ProxiedFlow:
    return ProxiedFlow(
        flow_id=next(_flow_ids),
        protocol=protocol,
        client=endpoint("192.168.1.200", 50000),
        server=server,
    )


def record(length: int, server=AVS) -> Packet:
    return Packet(
        src=endpoint("192.168.1.200", 50000), dst=server,
        protocol=Protocol.TCP, payload_len=length,
    )


@pytest.fixture
def obs():
    return Observability()


def windows_opened(obs: Observability) -> int:
    return obs.metrics.snapshot()["counters"]["recognition.windows_opened"]


@pytest.fixture
def world(sim, obs):
    log = GuardLog()
    recognition = TrafficRecognition(sim, log, obs=obs)
    recognition.add_speaker(SPEAKER_IP, SpeakerProfile.ECHO)
    classified = []
    recognition.on_classified = lambda window, cls: classified.append((window, cls))
    # Pretend DNS snooping already identified the AVS server.
    state = recognition.speaker_state(SPEAKER_IP)
    state.avs_ip = AVS.ip
    state.avs_ip_source = "dns"
    return sim, recognition, classified


class TestWindowMachinery:
    def test_unknown_speaker_forwards(self, world):
        sim, recognition, classified = world
        flow = make_flow()
        flow.client = endpoint("192.168.1.99", 50000)  # not a speaker
        assert recognition.observe(flow, record(277)) is ForwarderDecision.FORWARD
        assert not classified

    def test_irrelevant_server_forwards(self, world):
        sim, recognition, classified = world
        flow = make_flow(server=OTHER)
        assert recognition.observe(flow, record(277, OTHER)) is ForwarderDecision.FORWARD
        assert not classified

    def test_command_spike_holds_from_first_packet(self, world):
        sim, recognition, classified = world
        flow = make_flow()
        assert recognition.observe(flow, record(277)) is ForwarderDecision.HOLD
        assert recognition.observe(flow, record(138)) is ForwarderDecision.HOLD
        assert classified and classified[-1][1] is TrafficClass.COMMAND

    def test_response_spike_released_at_pair(self, world):
        sim, recognition, classified = world
        flow = make_flow()
        for length in (55, 61, 77):
            assert recognition.observe(flow, record(length)) is ForwarderDecision.HOLD
        # The 33 completes the pair; classification fires and the
        # current packet flows through.
        assert recognition.observe(flow, record(33)) is ForwarderDecision.FORWARD
        assert classified[-1][1] is TrafficClass.RESPONSE

    def test_unknown_window_forwards_until_it_ends(self, world):
        # A spike that times out unclassifiable settles UNKNOWN; later
        # records of the same window flow through even if nothing has
        # released the held ones yet.
        sim, recognition, classified = world
        flow = make_flow()
        assert recognition.observe(flow, record(999)) is ForwarderDecision.HOLD
        sim.run_for(CLASSIFICATION_TIMEOUT + 0.01)
        assert classified[-1][1] is TrafficClass.UNKNOWN
        assert recognition.observe(flow, record(999)) is ForwarderDecision.FORWARD

    def test_heartbeats_do_not_open_windows(self, world, obs):
        sim, recognition, classified = world
        flow = make_flow()
        assert recognition.observe(flow, record(41)) is ForwarderDecision.FORWARD
        assert windows_opened(obs) == 0

    def test_heartbeat_inside_window_is_held_for_ordering(self, world):
        sim, recognition, classified = world
        flow = make_flow()
        recognition.observe(flow, record(277))
        assert recognition.observe(flow, record(41)) is ForwarderDecision.HOLD

    def test_idle_gap_opens_new_window(self, world, obs):
        sim, recognition, classified = world
        flow = make_flow()
        recognition.observe(flow, record(138))  # command, window 1
        sim.run_for(10.0)  # exceed the idle gap
        recognition.observe(flow, record(55))
        assert windows_opened(obs) == 2

    def test_packets_within_gap_share_window(self, world, obs):
        sim, recognition, classified = world
        flow = make_flow()
        recognition.observe(flow, record(138))
        sim.run_for(1.0)
        recognition.observe(flow, record(1400))
        assert windows_opened(obs) == 1

    def test_pending_window_times_out_to_unknown(self, world):
        sim, recognition, classified = world
        flow = make_flow()
        recognition.observe(flow, record(300))  # undecidable alone
        sim.run_for(2.0)  # classification timeout passes
        assert classified and classified[-1][1] is TrafficClass.UNKNOWN

    def test_command_window_keeps_holding_until_resolution(self, world):
        sim, recognition, classified = world
        flow = make_flow()
        recognition.observe(flow, record(138))
        window = classified[-1][0]
        assert recognition.observe(flow, record(1400)) is ForwarderDecision.HOLD
        window.released = True
        assert recognition.observe(flow, record(1400)) is ForwarderDecision.FORWARD

    def test_discarded_tcp_window_forwards_rest(self, world):
        sim, recognition, classified = world
        flow = make_flow()
        recognition.observe(flow, record(138))
        window = classified[-1][0]
        window.discarded = True
        # TCP: the next record flows (and will desync TLS at the cloud).
        assert recognition.observe(flow, record(1400)) is ForwarderDecision.FORWARD

    def test_discarded_udp_window_keeps_dropping(self, world):
        sim, recognition, classified = world
        state = recognition.speaker_state(SPEAKER_IP)
        state.profile = SpeakerProfile.GOOGLE
        state.google_ips.add(AVS.ip)
        flow = make_flow(protocol=Protocol.UDP)
        recognition.observe(flow, record(500))
        window = classified[-1][0]
        assert window.classification is TrafficClass.COMMAND
        window.discarded = True
        assert recognition.observe(flow, record(500)) is ForwarderDecision.DROP


class TestSignatureTracking:
    def test_full_signature_identifies_server(self, world):
        sim, recognition, classified = world
        state = recognition.speaker_state(SPEAKER_IP)
        state.avs_ip = None
        state.avs_ip_source = None
        flow = make_flow(server=OTHER)
        for length in sig.AVS_CONNECT_SIGNATURE:
            recognition.observe(flow, record(length, OTHER))
        assert state.avs_ip == OTHER.ip
        assert state.avs_ip_source == "signature"

    def test_near_miss_does_not_identify(self, world):
        sim, recognition, classified = world
        state = recognition.speaker_state(SPEAKER_IP)
        state.avs_ip = None
        wrong = list(sig.AVS_CONNECT_SIGNATURE)
        wrong[3] = 999
        flow = make_flow(server=OTHER)
        for length in wrong:
            recognition.observe(flow, record(length, OTHER))
        assert state.avs_ip is None

    def test_other_amazon_signatures_never_match(self, world):
        sim, recognition, classified = world
        state = recognition.speaker_state(SPEAKER_IP)
        state.avs_ip = None
        for signature in sig.OTHER_AMAZON_SIGNATURES.values():
            flow = make_flow(server=OTHER)
            for length in signature:
                recognition.observe(flow, record(length, OTHER))
            assert state.avs_ip is None

    def test_tracking_disabled_by_flag(self, world):
        sim, recognition, classified = world
        recognition.use_signature_tracking = False
        state = recognition.speaker_state(SPEAKER_IP)
        state.avs_ip = None
        flow = make_flow(server=OTHER)
        for length in sig.AVS_CONNECT_SIGNATURE:
            recognition.observe(flow, record(length, OTHER))
        assert state.avs_ip is None

    def test_dns_snoop_sets_avs_ip(self, world):
        sim, recognition, classified = world
        state = recognition.speaker_state(SPEAKER_IP)
        state.avs_ip = None
        response = Packet(
            src=endpoint("192.168.1.1", 53),
            dst=endpoint("192.168.1.200", 5353),
            protocol=Protocol.UDP,
            payload_len=62,
            meta={"dns_response": sig.AVS_DOMAIN, "dns_answers": [AVS.ip]},
        )
        recognition.observe_snoop(response)
        assert state.avs_ip == AVS.ip
        assert state.avs_ip_source == "dns"

    def test_snoop_ignores_unrelated_domains(self, world):
        sim, recognition, classified = world
        state = recognition.speaker_state(SPEAKER_IP)
        state.avs_ip = None
        response = Packet(
            src=endpoint("192.168.1.1", 53),
            dst=endpoint("192.168.1.200", 5353),
            protocol=Protocol.UDP,
            payload_len=62,
            meta={"dns_response": "example.com", "dns_answers": [OTHER.ip]},
        )
        recognition.observe_snoop(response)
        assert state.avs_ip is None


class TestGoogleProfile:
    @pytest.fixture
    def google_world(self, sim):
        log = GuardLog()
        recognition = TrafficRecognition(sim, log)
        recognition.add_speaker(SPEAKER_IP, SpeakerProfile.GOOGLE)
        classified = []
        recognition.on_classified = lambda w, c: classified.append((w, c))
        state = recognition.speaker_state(SPEAKER_IP)
        state.google_ips.add(AVS.ip)
        return sim, recognition, classified

    def test_first_packet_is_command(self, google_world):
        sim, recognition, classified = google_world
        flow = make_flow()
        assert recognition.observe(flow, record(480)) is ForwarderDecision.HOLD
        assert classified[-1][1] is TrafficClass.COMMAND

    def test_unknown_google_server_forwards(self, google_world):
        sim, recognition, classified = google_world
        flow = make_flow(server=OTHER)
        assert recognition.observe(flow, record(480, OTHER)) is ForwarderDecision.FORWARD


class TestClassifyEchoLengthBoundaries:
    """Edge-of-window behaviour of the incremental phase classifier.

    The classifier's windows are exclusive at their far edge: markers
    count only among the first five packets, the 77->33 response pair
    only when *both* packets sit inside the seven-packet head.
    """

    FILLER = 999  # not a marker, a pair element, or a first-range value

    def test_phase1_marker_at_index_four_is_command(self):
        from repro.core.recognition import classify_echo_lengths

        lengths = [self.FILLER] * 4 + [sig.PHASE1_MARKERS[0]]
        assert classify_echo_lengths(lengths) is TrafficClass.COMMAND

    def test_phase1_marker_at_index_five_is_outside_window(self):
        from repro.core.recognition import classify_echo_lengths

        lengths = [self.FILLER] * 5 + [sig.PHASE1_MARKERS[0]]
        # Six packets seen, marker too late: still undecidable...
        assert classify_echo_lengths(lengths) is None
        # ...and a seventh non-evidence packet settles it as UNKNOWN,
        # never as a command.
        assert (classify_echo_lengths(lengths + [self.FILLER])
                is TrafficClass.UNKNOWN)

    def test_phase2_pair_ending_at_head_edge_is_response(self):
        from repro.core.recognition import classify_echo_lengths

        first, second = sig.PHASE2_MARKER_PAIR
        lengths = ([self.FILLER] * (sig.PHASE2_MARKER_MAX_INDEX - 2)
                   + [first, second])
        assert len(lengths) == sig.PHASE2_MARKER_MAX_INDEX
        assert classify_echo_lengths(lengths) is TrafficClass.RESPONSE

    def test_phase2_pair_straddling_head_cut_is_unknown(self):
        from repro.core.recognition import classify_echo_lengths

        first, second = sig.PHASE2_MARKER_PAIR
        # 77 is the seventh packet, 33 the eighth: the pair straddles
        # the head cut, so the response signal must NOT fire.
        lengths = ([self.FILLER] * (sig.PHASE2_MARKER_MAX_INDEX - 1)
                   + [first, second])
        assert classify_echo_lengths(lengths) is TrafficClass.UNKNOWN

    def test_empty_lengths_finalize_to_unknown(self):
        from repro.core.recognition import classify_echo_lengths, finalize_echo_lengths

        assert classify_echo_lengths([]) is None
        assert finalize_echo_lengths([]) is TrafficClass.UNKNOWN

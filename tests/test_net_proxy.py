"""Transparent proxy and TLS-session tests (Figure 4 mechanics)."""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.errors import NetworkError
from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Host, Network
from repro.net.packet import Packet, Protocol
from repro.net.proxy import (
    QUIC_IDLE_TIMEOUT,
    ForwarderDecision,
    HoldBudget,
    TransparentProxy,
    UdpForwarder,
)
from repro.net.tcp import TcpConnection, TcpStack
from repro.net.tls import TlsSession, TlsViolation
from repro.net.udp import UdpFlow
from repro.obs.tracer import Observability
from repro.sim.random import RngHub
from repro.sim.simulator import Simulator


class TestTlsSession:
    def test_in_sequence_records_accepted(self):
        session = TlsSession()
        for expected in range(5):
            assert session.accept_record(expected, now=0.0) is None
        assert session.records_received == 5

    def test_gap_triggers_violation(self):
        session = TlsSession()
        session.accept_record(0, now=0.0)
        violation = session.accept_record(2, now=1.5)
        assert isinstance(violation, TlsViolation)
        assert violation.expected_seq == 1
        assert violation.received_seq == 2

    def test_dead_session_rejects_everything(self):
        session = TlsSession()
        session.accept_record(1, now=0.0)  # immediate gap
        with pytest.raises(NetworkError):
            session.accept_record(2, now=0.1)

    def test_sender_sequence_increments(self):
        session = TlsSession()
        assert [session.next_send_seq() for _ in range(3)] == [0, 1, 2]

    def test_none_record_seq_rejected(self):
        session = TlsSession()
        with pytest.raises(NetworkError):
            session.accept_record(None, now=0.0)


def only_flow(proxy):
    """The proxy's one open flow."""
    (flow,) = proxy.open_flows.values()
    return flow


def flow_spans(proxy):
    return [span for span in proxy.tracer.spans if span.name == "proxy.flow"]


@pytest.fixture
def proxied_world(sim):
    """speaker <-> proxy <-> server, proxy terminating TCP."""
    network = Network(sim, RngHub(5))
    speaker = Host("speaker", IPv4Address("192.168.1.200"))
    server = Host("server", IPv4Address("54.1.1.1"))
    network.attach(speaker)
    network.attach(server)
    speaker_stack = TcpStack(speaker)
    server_stack = TcpStack(server)
    proxy = TransparentProxy("guard", IPv4Address("192.168.1.50"),
                             obs=Observability(sim, tracing=True))
    proxy.install(network, speaker.ip)
    server_received = []

    def accept(conn):
        conn.on_record = lambda c, p: server_received.append(p)

    server_stack.listen(443, accept)
    return sim, network, speaker_stack, server_stack, proxy, server_received


class TestTransparentProxy:
    def test_terminates_and_splices(self, proxied_world):
        sim, network, speaker, server, proxy, received = proxied_world
        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        sim.run_for(1.0)
        assert conn.is_established
        assert len(proxy.open_flows) == 1
        conn.send_record(100, tls_record_seq=0)
        sim.run_for(1.0)
        assert [p.payload_len for p in received] == [100]

    def test_flow_metadata(self, proxied_world):
        sim, network, speaker, server, proxy, received = proxied_world
        speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        sim.run_for(1.0)
        flow = only_flow(proxy)
        assert flow.client.ip == IPv4Address("192.168.1.200")
        assert flow.server == Endpoint(IPv4Address("54.1.1.1"), 443)

    def test_hold_then_release_preserves_order(self, proxied_world):
        sim, network, speaker, server, proxy, received = proxied_world
        held_sizes = (10, 20, 30)
        proxy.record_policy = (
            lambda flow, p: ForwarderDecision.HOLD
            if p.payload_len in held_sizes else ForwarderDecision.FORWARD
        )
        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        sim.run_for(1.0)
        for index, size in enumerate((10, 20, 30)):
            conn.send_record(size, tls_record_seq=index)
        sim.run_for(1.0)
        assert received == []  # parked
        flow = only_flow(proxy)
        assert len(flow.held) == 3
        proxy.release_held(flow)
        sim.run_for(1.0)
        assert [p.payload_len for p in received] == [10, 20, 30]

    def test_hold_keeps_connection_alive_for_a_long_time(self, proxied_world):
        sim, network, speaker, server, proxy, received = proxied_world
        proxy.record_policy = lambda flow, p: ForwarderDecision.HOLD
        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        sim.run_for(1.0)
        conn.send_record(100, tls_record_seq=0)
        sim.run_for(40.0)  # dozens of seconds, as the paper requires
        assert conn.is_established
        proxy.release_held(only_flow(proxy))
        sim.run_for(1.0)
        assert [p.payload_len for p in received] == [100]

    def test_discard_then_forward_desyncs_tls(self, proxied_world):
        sim, network, speaker, server, proxy, received = proxied_world
        session = TlsSession()
        violations = []

        def accept_with_tls(conn):
            def on_record(c, p):
                violation = session.accept_record(p.tls_record_seq, sim.now)
                if violation:
                    violations.append(violation)
                    c.close()
            conn.on_record = on_record

        # Replace the plain listener wholesale.
        server._listeners.clear()
        server.listen(443, accept_with_tls)

        hold = {"active": True}
        proxy.record_policy = (
            lambda flow, p: ForwarderDecision.HOLD if hold["active"]
            else ForwarderDecision.FORWARD
        )
        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        sim.run_for(1.0)
        conn.send_record(100, tls_record_seq=0)
        conn.send_record(200, tls_record_seq=1)
        sim.run_for(1.0)
        proxy.discard_held(only_flow(proxy))
        hold["active"] = False
        conn.send_record(300, tls_record_seq=2)  # out of TLS sequence now
        sim.run_for(2.0)
        assert violations and violations[0].received_seq == 2
        sim.run_for(3.0)
        assert not conn.is_established  # close propagated to the speaker
        # The finished flow left the map; its span ended with the close.
        assert proxy.open_flows == {}
        (span,) = flow_spans(proxy)
        assert span.finished and span.attrs["discarded"] == 2

    def test_server_records_reach_speaker(self, proxied_world):
        sim, network, speaker, server, proxy, received = proxied_world
        downstream = []
        server._listeners.clear()

        def accept(conn):
            conn.on_record = lambda c, p: c.send_record(42, tls_record_seq=0)

        server.listen(443, accept)
        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        conn.on_record = lambda c, p: downstream.append(p.payload_len)
        sim.run_for(1.0)
        conn.send_record(10, tls_record_seq=0)
        sim.run_for(1.0)
        assert downstream == [42]

    def test_snoopers_see_tapped_packets(self, proxied_world):
        # Datagrams only: the TCP segments of a spliced record are not
        # shown to snoopers.
        sim, network, speaker, server, proxy, received = proxied_world
        seen = []
        proxy.add_snooper(lambda p: seen.append((p.protocol, p.meta.get("dns_response"))))
        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        sim.run_for(1.0)
        conn.send_record(100, tls_record_seq=0)
        server.host.send(Packet(
            src=Endpoint(IPv4Address("54.1.1.1"), 53),
            dst=Endpoint(speaker.host.ip, 5353),
            protocol=Protocol.UDP, payload_len=90,
            meta={"dns_response": "example.com", "dns_answers": []},
        ))
        sim.run_for(1.0)
        assert [p.payload_len for p in received] == [100]
        assert seen == [(Protocol.UDP, "example.com")]

    def test_drop_decision_discards_record(self, proxied_world):
        sim, network, speaker, server, proxy, received = proxied_world
        proxy.record_policy = lambda flow, p: ForwarderDecision.DROP
        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        sim.run_for(1.0)
        conn.send_record(100, tls_record_seq=0)
        sim.run_for(1.0)
        assert received == []
        assert only_flow(proxy).records_discarded == 1


class TestForwardPath:
    """A FORWARD record on an established upstream goes straight to
    ``send_record``; every other case still parks a ``HeldRecord``."""

    def test_forward_before_upstream_established_flushes_in_order(self, proxied_world):
        sim, network, speaker, server, proxy, received = proxied_world
        sizes = (10, 20, 30)

        def send_at_once(conn):
            for index, size in enumerate(sizes):
                conn.send_record(size, tls_record_seq=index)

        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        conn.on_established = send_at_once
        # The records reach the proxy over the LAN long before the
        # spoofed upstream handshake crosses the WAN and back.
        sim.run_for(0.01)
        flow = only_flow(proxy)
        assert not flow.upstream.is_established
        assert [r.payload_len for r in flow.awaiting_upstream] == list(sizes)
        assert received == []
        sim.run_for(1.0)
        assert flow.awaiting_upstream == []
        assert [p.payload_len for p in received] == list(sizes)
        assert [p.tls_record_seq for p in received] == [0, 1, 2]
        assert flow.records_forwarded == 3

    def test_forwarded_meta_is_a_copy(self, proxied_world):
        sim, network, speaker, server, proxy, received = proxied_world
        inbound = []
        proxy.record_policy = lambda flow, p: inbound.append(p) or ForwarderDecision.FORWARD
        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        sim.run_for(1.0)
        conn.send_record(100, tls_record_seq=0, meta={"heartbeat": True})
        sim.run_for(1.0)
        assert len(inbound) == len(received) == 1
        forwarded = received[0]
        assert forwarded.meta == {"heartbeat": True}
        assert forwarded.meta is not inbound[0].meta
        inbound[0].meta["heartbeat"] = False
        assert forwarded.meta == {"heartbeat": True}

    def test_server_record_meta_is_a_copy(self, proxied_world):
        sim, network, speaker, server, proxy, received = proxied_world
        server._listeners.clear()
        server.listen(443, lambda conn: setattr(
            conn, "on_record",
            lambda c, p: c.send_record(42, tls_record_seq=0, meta={"heartbeat_ack": True})))
        replies = []
        network.add_observer(
            lambda p, scope: replies.append(p) if p.payload_len == 42 else None)
        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        sim.run_for(1.0)
        conn.send_record(10, tls_record_seq=0)
        sim.run_for(1.0)
        from_server, to_speaker = replies
        assert to_speaker.dst == conn.local
        assert to_speaker.meta == from_server.meta == {"heartbeat_ack": True}
        assert to_speaker.meta is not from_server.meta


class TestUdpForwarder:
    @pytest.fixture
    def udp_world(self, sim):
        network = Network(sim, RngHub(6))
        speaker = Host("speaker", IPv4Address("192.168.1.201"))
        server = Host("server", IPv4Address("142.250.65.68"))
        network.attach(speaker)
        network.attach(server)
        proxy = TransparentProxy("guard", IPv4Address("192.168.1.50"),
                                 obs=Observability(sim, tracing=True))
        proxy.install(network, speaker.ip)
        forwarder = UdpForwarder(proxy, speaker.ip)
        received = []
        server.register_udp_handler(443, lambda p: received.append(p.payload_len))
        flow = UdpFlow(speaker, Endpoint(speaker.ip, 52001),
                       Endpoint(server.ip, 443))
        return sim, proxy, forwarder, flow, received

    def test_datagrams_forwarded_by_default(self, udp_world):
        sim, proxy, forwarder, flow, received = udp_world
        flow.send(500)
        sim.run_for(1.0)
        assert received == [500]

    def test_hold_and_release(self, udp_world):
        sim, proxy, forwarder, flow, received = udp_world
        proxy.record_policy = lambda f, p: ForwarderDecision.HOLD
        flow.send(500)
        flow.send(600)
        sim.run_for(1.0)
        assert received == []
        proxy.release_held(only_flow(proxy))
        sim.run_for(1.0)
        assert received == [500, 600]

    def test_hold_and_discard(self, udp_world):
        sim, proxy, forwarder, flow, received = udp_world
        proxy.record_policy = lambda f, p: ForwarderDecision.HOLD
        flow.send(500)
        sim.run_for(1.0)
        count = proxy.discard_held(only_flow(proxy))
        assert count == 1
        sim.run_for(1.0)
        assert received == []

    def test_drop_decision(self, udp_world):
        sim, proxy, forwarder, flow, received = udp_world
        proxy.record_policy = lambda f, p: ForwarderDecision.DROP
        flow.send(500)
        sim.run_for(1.0)
        assert received == []
        assert only_flow(proxy).records_discarded == 1

    def test_refused_hold_forwarded_when_overflow_forwards(self, udp_world):
        sim, proxy, forwarder, flow, received = udp_world
        proxy.hold_budget = HoldBudget(limit_bytes=100)
        proxy.record_policy = lambda f, p: ForwarderDecision.HOLD
        shed = []
        proxy.on_hold_overflow = lambda f: shed.append(f) or ForwarderDecision.FORWARD
        flow.send(500)
        sim.run_for(1.0)
        assert shed == [only_flow(proxy)]
        assert received == [500]
        assert only_flow(proxy).records_forwarded == 1
        assert proxy.hold_budget.held_bytes == 0

    def test_refused_hold_dropped_when_overflow_drops(self, udp_world):
        sim, proxy, forwarder, flow, received = udp_world
        proxy.hold_budget = HoldBudget(limit_bytes=100)
        proxy.record_policy = lambda f, p: ForwarderDecision.HOLD
        proxy.on_hold_overflow = lambda f: ForwarderDecision.DROP
        flow.send(500)
        sim.run_for(1.0)
        assert received == []
        assert only_flow(proxy).records_discarded == 1
        assert only_flow(proxy).held == []

    def test_quiet_flow_closes_after_idle_timeout(self, udp_world):
        sim, proxy, forwarder, flow, received = udp_world
        flow.send(500)
        sim.run_for(QUIC_IDLE_TIMEOUT - 1.0)
        proxied = only_flow(proxy)
        flow.send(600)  # a datagram restarts the idle period
        sim.run_for(QUIC_IDLE_TIMEOUT - 1.0)
        assert not proxied.closed
        sim.run_for(2.0)
        assert proxied.closed and proxied.close_reason == "idle"
        assert proxy.open_flows == {}
        (span,) = flow_spans(proxy)
        assert span.attrs["reason"] == "idle" and span.attrs["forwarded"] == 2
        assert span.end == pytest.approx(proxied.last_datagram_at + QUIC_IDLE_TIMEOUT)
        assert received == [500, 600]
        # A later datagram on the same ports opens a new flow.
        flow.send(700)
        sim.run_for(1.0)
        assert only_flow(proxy).flow_id > proxied.flow_id
        assert received == [500, 600, 700]

    def test_server_datagrams_keep_the_flow_open(self, udp_world):
        sim, proxy, forwarder, flow, received = udp_world
        flow.send(500)
        reply = Packet(src=Endpoint(IPv4Address("142.250.65.68"), 443),
                       dst=flow.local, protocol=Protocol.UDP, payload_len=77)
        server = proxy.network.host_for(reply.src.ip)
        for _ in range(3):
            sim.run_for(QUIC_IDLE_TIMEOUT - 1.0)
            server.send(reply)
        sim.run_for(QUIC_IDLE_TIMEOUT - 1.0)
        assert not only_flow(proxy).closed

    def test_flow_holding_datagrams_does_not_close(self, udp_world):
        sim, proxy, forwarder, flow, received = udp_world
        proxy.record_policy = lambda f, p: ForwarderDecision.HOLD
        flow.send(500)
        sim.run_for(3 * QUIC_IDLE_TIMEOUT)
        proxied = only_flow(proxy)
        assert [record.payload_len for record in proxied.held] == [500]
        assert not flow_spans(proxy)[0].finished
        # The release is the flow's last datagram: the timeout runs from it.
        proxy.release_held(proxied)
        sim.run_for(QUIC_IDLE_TIMEOUT - 1.0)
        assert not proxied.closed
        sim.run_for(2.0)
        assert proxied.closed and flow_spans(proxy)[0].attrs["reason"] == "idle"
        assert received == [500]

    def test_server_replies_bridged_to_speaker(self, udp_world):
        sim, proxy, forwarder, flow, received = udp_world
        got = []
        flow.on_datagram = lambda f, p: got.append(p.payload_len)
        flow.send(500)
        sim.run_for(1.0)
        # The server answers to the speaker's endpoint.
        server_packet = Packet(
            src=Endpoint(IPv4Address("142.250.65.68"), 443),
            dst=flow.local, protocol=Protocol.UDP, payload_len=77,
        )
        proxy.network.host_for(IPv4Address("142.250.65.68")).send(server_packet)
        sim.run_for(1.0)
        assert got == [77]


_REPRO_DIR = os.path.dirname(repro.__file__)


def _frames_into_handle(sim, duration):
    """Run ``sim`` for ``duration``; for every segment that reaches
    ``TcpConnection.handle``, return ``(payload_len, frames)``: the repro
    frames from ``Simulator.run_until`` down to ``handle``.

    Taken with ``sys.setprofile``.  Frames are named from a fixed table
    of code objects (``co_qualname`` needs Python 3.11), others by their
    function name.
    """
    names = {fn.__code__: label for label, fn in (
        ("Simulator.run_until", Simulator.run_until),
        ("TcpStack.receive", TcpStack.receive),
        ("TransparentProxy.intercept", TransparentProxy.intercept),
        ("TcpConnection.handle", TcpConnection.handle),
    )}
    handle = TcpConnection.handle.__code__
    run_until = Simulator.run_until.__code__
    calls = []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code is not handle:
            return
        packet = frame.f_locals["packet"]
        frames = []
        while frame is not None:
            code = frame.f_code
            if code.co_filename.startswith(_REPRO_DIR):
                frames.append(names.get(code, code.co_name))
            if code is run_until:
                break
            frame = frame.f_back
        calls.append((packet.payload_len, frames[::-1]))

    sys.setprofile(profile)
    try:
        sim.run_for(duration)
    finally:
        sys.setprofile(None)
    return calls


class TestDeliveryPath:
    def test_unobserved_segment_is_one_call_from_the_heap(self, proxied_world):
        # One record: data and its ACK on each leg.  The speaker's data
        # and the cloud's ACK are diverted to the tap; the proxy's ACK
        # and its upstream copy reach a host stack.
        sim, network, speaker, server, proxy, received = proxied_world
        conn = speaker.connect(Endpoint(IPv4Address("54.1.1.1"), 443))
        sim.run_for(1.0)
        conn.send_record(100, tls_record_seq=0)
        tap = ["Simulator.run_until", "TransparentProxy.intercept", "TcpConnection.handle"]
        host = ["Simulator.run_until", "TcpStack.receive", "TcpConnection.handle"]
        assert _frames_into_handle(sim, 1.0) == [(100, tap), (0, host), (100, host), (0, tap)]
        assert [p.payload_len for p in received] == [100]

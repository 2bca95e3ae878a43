"""Unit tests for addresses, packets, links, DNS, UDP, and capture."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.errors import NetworkError
from repro.net.addresses import Endpoint, IPv4Address, endpoint
from repro.net.capture import PacketCapture
from repro.net.dns import DnsClient, DnsServer
from repro.net.link import Host, Network, TapHost
from repro.net.packet import Packet, Protocol, TcpFlags, TlsRecordType
from repro.net.udp import QUIC_IDLE_TIMEOUT, UdpFlow
from repro.sim.random import RngHub


@pytest.fixture
def network(sim):
    return Network(sim, RngHub(1))


def make_host(network, name, ip):
    host = Host(name, IPv4Address(ip))
    network.attach(host)
    return host


class TestAddresses:
    def test_valid_address(self):
        assert str(IPv4Address("192.168.1.200")) == "192.168.1.200"

    @pytest.mark.parametrize("bad", ["1.2.3", "256.1.1.1", "a.b.c.d", "01.2.3.4", "1.2.3.4.5"])
    def test_invalid_addresses(self, bad):
        with pytest.raises(NetworkError):
            IPv4Address(bad)

    @pytest.mark.parametrize("ip,private", [
        ("192.168.0.1", True),
        ("10.0.0.1", True),
        ("172.16.0.1", True),
        ("172.32.0.1", False),
        ("8.8.8.8", False),
        ("54.239.28.85", False),
    ])
    def test_private_detection(self, ip, private):
        assert IPv4Address(ip).is_private is private

    def test_endpoint_str(self):
        assert str(endpoint("10.0.0.1", 443)) == "10.0.0.1:443"

    @pytest.mark.parametrize("port", [0, -1, 70000])
    def test_invalid_ports(self, port):
        with pytest.raises(NetworkError):
            Endpoint(IPv4Address("10.0.0.1"), port)

    def test_endpoints_hashable_and_ordered(self):
        a = endpoint("10.0.0.1", 1000)
        b = endpoint("10.0.0.1", 2000)
        assert len({a, b, a}) == 2
        assert a < b

    def test_hashes_match_the_dataclass_formula(self):
        # The frozen dataclasses these types once were hashed as
        # hash((text,)) and hash((ip, port)); set and dict iteration
        # orders (and so every golden) depend on keeping those values.
        for text in ("192.168.1.200", "54.239.28.85", "10.0.0.1"):
            ip = IPv4Address(text)
            assert hash(ip) == hash((text,))
            for port in (1, 443, 49201, 65535):
                assert hash(Endpoint(ip, port)) == hash(((text,), port))

    def test_equality(self):
        assert IPv4Address("10.0.0.1") == IPv4Address("10.0.0.1")
        assert IPv4Address("10.0.0.1") != IPv4Address("10.0.0.2")
        assert endpoint("10.0.0.1", 1) == endpoint("10.0.0.1", 1)
        assert endpoint("10.0.0.1", 1) != endpoint("10.0.0.1", 2)
        assert endpoint("10.0.0.1", 1) != IPv4Address("10.0.0.1")

    def test_ordering_follows_text_then_port(self):
        texts = ["54.1.1.1", "10.0.0.2", "192.168.1.200", "10.0.0.10"]
        assert [ip.text for ip in sorted(IPv4Address(t) for t in texts)] == sorted(texts)
        pairs = [("10.0.0.2", 80), ("10.0.0.10", 443), ("10.0.0.2", 22)]
        ordered = sorted(endpoint(t, p) for t, p in pairs)
        assert [(e.ip.text, e.port) for e in ordered] == sorted(pairs)

    def test_str_and_repr_unchanged(self):
        ip = IPv4Address("192.168.1.200")
        ep = Endpoint(ip, 443)
        assert str(ip) == f"{ip}" == "192.168.1.200"
        assert repr(ip) == "IPv4Address(text='192.168.1.200')"
        assert str(ep) == f"{ep}" == "192.168.1.200:443"
        assert repr(ep) == "Endpoint(ip=IPv4Address(text='192.168.1.200'), port=443)"

    def test_accessors(self):
        ep = endpoint("172.16.4.5", 8443)
        assert ep.ip == IPv4Address("172.16.4.5")
        assert ep.ip.text == "172.16.4.5"
        assert ep.port == 8443
        assert ep.ip.is_private

    def test_immutable(self):
        ep = endpoint("10.0.0.1", 443)
        with pytest.raises(AttributeError):
            ep.port = 80
        with pytest.raises(AttributeError):
            ep.ip.text = "10.0.0.2"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        ep = endpoint("192.168.1.200", 443)
        back = pickle.loads(pickle.dumps(ep, protocol=protocol))
        assert back == ep and hash(back) == hash(ep)
        assert type(back) is Endpoint and type(back.ip) is IPv4Address
        assert copy.deepcopy(ep) == ep

    @pytest.mark.parametrize("port", [1, 65535])
    def test_port_bounds_accepted(self, port):
        assert Endpoint(IPv4Address("10.0.0.1"), port).port == port

    @pytest.mark.parametrize("port", [65536, 10**6])
    def test_ports_above_range_rejected(self, port):
        with pytest.raises(NetworkError):
            Endpoint(IPv4Address("10.0.0.1"), port)

    @pytest.mark.parametrize("bad", ["", "1.2.3.", "1..2.3", "-1.2.3.4", "1.2.3.256"])
    def test_more_invalid_addresses(self, bad):
        with pytest.raises(NetworkError):
            IPv4Address(bad)


class TestPacket:
    def test_negative_payload_rejected(self):
        with pytest.raises(NetworkError):
            Packet(
                src=endpoint("10.0.0.1", 1), dst=endpoint("10.0.0.2", 2),
                protocol=Protocol.UDP, payload_len=-1,
            )

    def test_application_data_detection(self):
        packet = Packet(
            src=endpoint("10.0.0.1", 1), dst=endpoint("10.0.0.2", 2),
            protocol=Protocol.TCP, payload_len=100,
            tls_type=TlsRecordType.APPLICATION_DATA,
        )
        assert packet.is_application_data
        ack = Packet(
            src=endpoint("10.0.0.1", 1), dst=endpoint("10.0.0.2", 2),
            protocol=Protocol.TCP, flags=TcpFlags.ACK,
        )
        assert not ack.is_application_data

    def test_packet_numbers_increase(self, sim, network):
        """A network numbers packets 1, 2, 3... in the order it first
        sends them, not the order they were built."""
        a = make_host(network, "a", "192.168.1.10")
        b = make_host(network, "b", "192.168.1.11")
        received = []
        b.register_udp_handler(9, received.append)
        packets = [Packet(src=Endpoint(a.ip, 1), dst=Endpoint(b.ip, 9),
                          protocol=Protocol.UDP, payload_len=size)
                   for size in (1, 2, 3)]
        for packet in reversed(packets):
            a.send(packet)
        sim.run()
        assert [p.payload_len for p in received] == [3, 2, 1]
        assert [p.number for p in received] == [1, 2, 3]

    def test_unsent_packet_has_no_number(self):
        packet = Packet(src=endpoint("10.0.0.1", 1), dst=endpoint("10.0.0.2", 2),
                        protocol=Protocol.UDP, payload_len=1)
        assert packet.number is None

    def test_brief_renders(self):
        packet = Packet(src=endpoint("10.0.0.1", 1), dst=endpoint("10.0.0.2", 2),
                        protocol=Protocol.TCP, payload_len=41, flags=TcpFlags.PSH | TcpFlags.ACK)
        text = packet.brief()
        assert "len=41" in text and "PSH" in text


class TestNetwork:
    def test_delivery(self, sim, network):
        a = make_host(network, "a", "192.168.1.10")
        b = make_host(network, "b", "192.168.1.11")
        received = []
        b.register_udp_handler(9, received.append)
        a.send(Packet(src=Endpoint(a.ip, 1), dst=Endpoint(b.ip, 9),
                      protocol=Protocol.UDP, payload_len=10))
        sim.run()
        assert len(received) == 1

    def test_duplicate_ip_rejected(self, network):
        make_host(network, "a", "192.168.1.10")
        with pytest.raises(NetworkError):
            make_host(network, "b", "192.168.1.10")

    def test_lan_faster_than_wan(self, sim, network):
        a = make_host(network, "a", "192.168.1.10")
        b = make_host(network, "b", "192.168.1.11")
        c = make_host(network, "c", "54.1.1.1")
        times = {}
        b.register_udp_handler(9, lambda p: times.__setitem__("lan", sim.now))
        c.register_udp_handler(9, lambda p: times.__setitem__("wan", sim.now))
        a.send(Packet(src=Endpoint(a.ip, 1), dst=Endpoint(b.ip, 9),
                      protocol=Protocol.UDP, payload_len=1))
        a.send(Packet(src=Endpoint(a.ip, 1), dst=Endpoint(c.ip, 9),
                      protocol=Protocol.UDP, payload_len=1))
        sim.run()
        assert times["lan"] < times["wan"]

    def test_per_pair_fifo_despite_jitter(self, sim, network):
        a = make_host(network, "a", "192.168.1.10")
        c = make_host(network, "c", "54.1.1.1")
        order = []
        c.register_udp_handler(9, lambda p: order.append(p.payload_len))
        for size in range(1, 30):
            a.send(Packet(src=Endpoint(a.ip, 1), dst=Endpoint(c.ip, 9),
                          protocol=Protocol.UDP, payload_len=size))
        sim.run()
        assert order == list(range(1, 30))

    def test_tap_diverts_both_directions(self, sim, network):
        speaker = make_host(network, "speaker", "192.168.1.200")
        cloud = make_host(network, "cloud", "54.1.1.1")
        tap = TapHost("tap", IPv4Address("192.168.1.50"))
        network.attach(tap)
        network.install_tap(speaker.ip, tap)
        intercepted = []
        tap.intercept = lambda p: intercepted.append(p)  # type: ignore[assignment]
        speaker.send(Packet(src=Endpoint(speaker.ip, 1), dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=1))
        cloud.send(Packet(src=Endpoint(cloud.ip, 9), dst=Endpoint(speaker.ip, 1),
                          protocol=Protocol.UDP, payload_len=2))
        sim.run()
        assert [p.payload_len for p in intercepted] == [1, 2]

    def test_tap_origin_bypasses_tap(self, sim, network):
        speaker = make_host(network, "speaker", "192.168.1.200")
        cloud = make_host(network, "cloud", "54.1.1.1")
        received = []
        cloud.register_udp_handler(9, received.append)
        tap = TapHost("tap", IPv4Address("192.168.1.50"))
        network.attach(tap)
        network.install_tap(speaker.ip, tap)
        # The tap re-injects (bridges) the packet; default intercept does.
        speaker.send(Packet(src=Endpoint(speaker.ip, 1), dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=7))
        sim.run()
        assert [p.payload_len for p in received] == [7]

    def test_bridged_packet_keeps_its_number(self, sim, network):
        speaker = make_host(network, "speaker", "192.168.1.200")
        cloud = make_host(network, "cloud", "54.1.1.1")
        received = []
        cloud.register_udp_handler(9, received.append)
        tap = TapHost("tap", IPv4Address("192.168.1.50"))
        network.attach(tap)
        network.install_tap(speaker.ip, tap)
        seen = []
        network.add_observer(lambda p, scope: seen.append(p.number))
        speaker.send(Packet(src=Endpoint(speaker.ip, 1), dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=7))
        sim.run()
        # Delivered twice (speaker -> tap, tap -> cloud) under one number.
        assert seen == [1, 1]
        assert [p.number for p in received] == [1]

    def test_lost_packet_uses_up_its_number(self, sim):
        network = Network(sim, RngHub(1), wan_loss=1.0)
        a = make_host(network, "a", "192.168.1.10")
        b = make_host(network, "b", "192.168.1.11")
        cloud = make_host(network, "cloud", "54.1.1.1")
        received = []
        b.register_udp_handler(9, received.append)
        lost = Packet(src=Endpoint(a.ip, 1), dst=Endpoint(cloud.ip, 9),
                      protocol=Protocol.UDP, payload_len=1)
        a.send(lost)
        a.send(Packet(src=Endpoint(a.ip, 1), dst=Endpoint(b.ip, 9),
                      protocol=Protocol.UDP, payload_len=2))
        sim.run()
        assert network.packets_lost == 1
        assert lost.number == 1
        assert [p.number for p in received] == [2]

    def test_protocols_on_one_endpoint_pair_keep_separate_fifo_floors(self, sim):
        # Without jitter both packets land at now + latency; a UDP datagram
        # floored behind the TCP segment on the same endpoints would land
        # 1 us later.
        network = Network(sim, RngHub(1), jitter=0.0)
        a = make_host(network, "a", "192.168.1.2")
        make_host(network, "cloud", "52.0.0.1")
        arrivals = {}
        network.add_observer(lambda p, scope: arrivals.__setitem__(p.protocol, sim.now))
        src, dst = endpoint("192.168.1.2", 52000), endpoint("52.0.0.1", 443)
        a.send(Packet(src, dst, Protocol.TCP, 0, TcpFlags.ACK))
        a.send(Packet(src, dst, Protocol.UDP, 10))
        sim.run()
        assert arrivals[Protocol.UDP] == arrivals[Protocol.TCP]

    def test_alias_routes_to_same_host(self, sim, network):
        host = make_host(network, "cloud", "54.1.1.1")
        network.add_alias(host, IPv4Address("54.1.1.2"))
        received = []
        host.register_udp_handler(9, received.append)
        other = make_host(network, "a", "192.168.1.10")
        other.send(Packet(src=Endpoint(other.ip, 1), dst=endpoint("54.1.1.2", 9),
                          protocol=Protocol.UDP, payload_len=1))
        sim.run()
        assert len(received) == 1

    def test_alias_collision_rejected(self, network):
        host = make_host(network, "cloud", "54.1.1.1")
        make_host(network, "other", "54.1.1.2")
        with pytest.raises(NetworkError):
            network.add_alias(host, IPv4Address("54.1.1.2"))

    def test_unattached_host_cannot_send(self):
        host = Host("loner", IPv4Address("10.0.0.1"))
        with pytest.raises(NetworkError):
            host.send(Packet(src=Endpoint(host.ip, 1), dst=endpoint("10.0.0.2", 2),
                             protocol=Protocol.UDP, payload_len=1))


class TestDns:
    def test_query_answer_roundtrip(self, sim, network):
        server = DnsServer("dns", IPv4Address("192.168.1.1"))
        network.attach(server)
        server.add_record("example.com", [IPv4Address("54.1.1.1")])
        client_host = make_host(network, "client", "192.168.1.10")
        client = DnsClient(client_host, Endpoint(server.ip, 53))
        answers = []
        client.resolve("example.com", answers.extend)
        sim.run()
        assert answers == [IPv4Address("54.1.1.1")]

    def test_rotation_changes_answer(self, sim, network):
        server = DnsServer("dns", IPv4Address("192.168.1.1"))
        network.attach(server)
        record = server.add_record("example.com", [
            IPv4Address("54.1.1.1"), IPv4Address("54.1.1.2"),
        ])
        assert record.current() == IPv4Address("54.1.1.1")
        assert record.rotate() == IPv4Address("54.1.1.2")
        assert record.rotate() == IPv4Address("54.1.1.1")

    def test_unknown_domain_yields_empty(self, sim, network):
        server = DnsServer("dns", IPv4Address("192.168.1.1"))
        network.attach(server)
        client_host = make_host(network, "client", "192.168.1.10")
        client = DnsClient(client_host, Endpoint(server.ip, 53))
        results = []
        client.resolve("nope.example", results.append)
        sim.run()
        assert results == [[]]

    def test_empty_record_rejected(self, network):
        server = DnsServer("dns", IPv4Address("192.168.1.1"))
        network.attach(server)
        with pytest.raises(NetworkError):
            server.add_record("empty.example", [])


class TestUdpFlow:
    def test_send_and_receive(self, sim, network):
        a = make_host(network, "a", "192.168.1.10")
        b = make_host(network, "b", "192.168.1.11")
        got = []
        flow_b = UdpFlow(b, Endpoint(b.ip, 500), Endpoint(a.ip, 400),
                         lambda flow, p: got.append(p.payload_len))
        flow_a = UdpFlow(a, Endpoint(a.ip, 400), Endpoint(b.ip, 500))
        flow_a.send(123)
        sim.run()
        assert got == [123]
        assert flow_a.datagrams_sent == 1
        assert flow_b.datagrams_received == 1

    def test_datagram_from_a_third_host_is_ignored(self, sim, network):
        a = make_host(network, "a", "192.168.1.10")
        b = make_host(network, "b", "192.168.1.11")
        c = make_host(network, "c", "192.168.1.12")
        got = []
        flow_b = UdpFlow(b, Endpoint(b.ip, 500), Endpoint(a.ip, 400),
                         lambda flow, p: got.append(p.payload_len))
        UdpFlow(c, Endpoint(c.ip, 400), Endpoint(b.ip, 500)).send(77)
        UdpFlow(a, Endpoint(a.ip, 400), Endpoint(b.ip, 500)).send(123)
        sim.run()
        assert got == [123]
        assert flow_b.datagrams_received == 1

    def test_idle_close_frees_the_port(self, sim, network):
        a = make_host(network, "a", "192.168.1.10")
        b = make_host(network, "b", "192.168.1.11")
        flow = UdpFlow(a, Endpoint(a.ip, 400), Endpoint(b.ip, 500))
        flow.close_when_idle()
        sim.run_for(6.0)
        flow.send(50)  # activity restarts the idle clock
        sim.run_for(QUIC_IDLE_TIMEOUT - 0.5)
        assert 400 in a._udp_handlers
        sim.run_for(1.0)
        assert 400 not in a._udp_handlers
        UdpFlow(a, Endpoint(a.ip, 400), Endpoint(b.ip, 500))  # port reusable

    def test_zero_payload_rejected(self, sim, network):
        a = make_host(network, "a", "192.168.1.10")
        flow = UdpFlow(a, Endpoint(a.ip, 401), endpoint("192.168.1.11", 500))
        with pytest.raises(NetworkError):
            flow.send(0)


class TestCapture:
    def test_records_and_filters(self, sim, network):
        a = make_host(network, "a", "192.168.1.10")
        b = make_host(network, "b", "192.168.1.11")
        capture = PacketCapture().attach(network)
        a.send(Packet(src=Endpoint(a.ip, 1), dst=Endpoint(b.ip, 9),
                      protocol=Protocol.UDP, payload_len=10))
        sim.run()
        assert len(capture) == 1
        assert capture.from_ip(a.ip)[0].payload_len == 10

    def test_keep_predicate(self, sim, network):
        a = make_host(network, "a", "192.168.1.10")
        b = make_host(network, "b", "192.168.1.11")
        capture = PacketCapture().attach(network, keep=lambda p: p.payload_len > 5)
        for size in (3, 8):
            a.send(Packet(src=Endpoint(a.ip, 1), dst=Endpoint(b.ip, 9),
                          protocol=Protocol.UDP, payload_len=size))
        sim.run()
        assert [r.payload_len for r in capture] == [8]

    def test_render_contains_rows(self, sim, network):
        a = make_host(network, "a", "192.168.1.10")
        b = make_host(network, "b", "192.168.1.11")
        capture = PacketCapture().attach(network)
        a.send(Packet(src=Endpoint(a.ip, 1), dst=Endpoint(b.ip, 9),
                      protocol=Protocol.UDP, payload_len=10))
        sim.run()
        text = capture.render()
        assert "192.168.1.10" in text

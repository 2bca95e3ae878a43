"""TCP state machine tests: handshake, data, loss recovery, keepalive."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionClosedError, NetworkError
from repro.net import tcp
from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Host, Network, TapHost
from repro.net.packet import Packet, Protocol, TcpFlags, TlsRecordType
from repro.net.tcp import TcpStack, TcpState, TcpTuning
from repro.sim.random import RngHub


@pytest.fixture
def world(sim):
    network = Network(sim, RngHub(3))
    client_host = Host("client", IPv4Address("192.168.1.10"))
    server_host = Host("server", IPv4Address("54.1.1.1"))
    network.attach(client_host)
    network.attach(server_host)
    client = TcpStack(client_host)
    server = TcpStack(server_host)
    return sim, network, client, server


def connect(sim, client, server, tuning=None):
    accepted = []
    server.listen(443, accepted.append, tuning=tuning)
    conn = client.connect(Endpoint(server.host.ip, 443), tuning=tuning)
    sim.run_for(1.0)
    assert accepted, "server never accepted"
    return conn, accepted[0]


class TestHandshake:
    def test_three_way_establishes_both_sides(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        assert conn.state is TcpState.ESTABLISHED
        assert srv.state is TcpState.ESTABLISHED

    def test_established_callback_fires(self, world):
        sim, network, client, server = world
        fired = []
        server.listen(443, lambda c: fired.append("server"))
        conn = client.connect(Endpoint(server.host.ip, 443))
        conn.on_established = lambda c: fired.append("client")
        sim.run_for(1.0)
        assert set(fired) == {"server", "client"}

    def test_syn_to_closed_port_ignored(self, world):
        sim, network, client, server = world
        conn = client.connect(Endpoint(server.host.ip, 9999))
        sim.run_for(2.0)
        assert conn.state is TcpState.SYN_SENT  # retrying, never answered

    def test_non_transparent_listener_rejects_other_ip(self, world):
        sim, network, client, server = world
        accepted = []
        server.listen(443, accepted.append, transparent=False)
        # A SYN addressed to an IP the server host does not own lands on
        # its stack (e.g. via a misrouted tap); it must not be accepted.
        from repro.net.packet import TcpFlags
        syn = Packet(
            src=Endpoint(client.host.ip, 50000),
            dst=Endpoint(IPv4Address("54.9.9.9"), 443),
            protocol=Protocol.TCP,
            flags=TcpFlags.SYN,
        )
        server.host.receive(syn)
        sim.run_for(1.0)
        assert not accepted

    def test_duplicate_listen_rejected(self, world):
        sim, network, client, server = world
        server.listen(443, lambda c: None)
        with pytest.raises(Exception):
            server.listen(443, lambda c: None)


class TestDataTransfer:
    def test_records_delivered_in_order(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        received = []
        srv.on_record = lambda c, p: received.append(p.payload_len)
        for size in (100, 200, 300):
            conn.send_record(size, tls_record_seq=0)
        sim.run_for(2.0)
        assert received == [100, 200, 300]
        assert srv.bytes_received == 600

    def test_send_on_closed_connection_raises(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        conn.close()
        sim.run_for(2.0)
        with pytest.raises(ConnectionClosedError):
            conn.send_record(10)

    def test_bidirectional_records(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        client_got = []
        conn.on_record = lambda c, p: client_got.append(p.payload_len)
        srv.send_record(55, tls_record_seq=0)
        sim.run_for(2.0)
        assert client_got == [55]

    def test_meta_travels_with_record(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        metas = []
        srv.on_record = lambda c, p: metas.append(p.meta.get("marker"))
        conn.send_record(10, meta={"marker": "x"})
        sim.run_for(1.0)
        assert metas == ["x"]


class TestTeardown:
    def test_orderly_close_notifies_both(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        reasons = {}
        conn.on_close = lambda c, r: reasons.__setitem__("client", r)
        srv.on_close = lambda c, r: reasons.__setitem__("server", r)
        conn.close()
        sim.run_for(2.0)
        assert reasons == {"client": "fin", "server": "fin"}
        assert conn.state is TcpState.CLOSED

    def test_abort_sends_rst(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        reasons = {}
        srv.on_close = lambda c, r: reasons.__setitem__("server", r)
        conn.abort()
        sim.run_for(2.0)
        assert reasons["server"] == "rst"

    def test_stack_forgets_closed_connections(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        assert client.connection_count == 1
        conn.close()
        sim.run_for(2.0)
        assert client.connection_count == 0
        assert server.connection_count == 0


class _DropTap(TapHost):
    """Drops the first N client data packets, bridges everything else."""

    def __init__(self, name, ip, drop_count):
        super().__init__(name, ip)
        self.remaining = drop_count

    def intercept(self, packet):
        is_client_data = packet.payload_len > 0 and packet.src.port != 443
        if is_client_data and self.remaining > 0:
            self.remaining -= 1
            return
        self.bridge(packet)


class TestLossRecovery:
    def test_retransmission_recovers_dropped_data(self, world):
        sim, network, client, server = world
        tap = _DropTap("tap", IPv4Address("192.168.1.50"), drop_count=3)
        network.attach(tap)
        network.install_tap(client.host.ip, tap)
        conn, srv = connect(sim, client, server)
        received = []
        srv.on_record = lambda c, p: received.append(p.payload_len)
        for size in (10, 20, 30, 40, 50):
            conn.send_record(size, tls_record_seq=0)
        sim.run_for(8.0)
        assert received == [10, 20, 30, 40, 50]
        assert conn.retransmissions >= 3

    def test_receiver_suppresses_duplicates(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        received = []
        srv.on_record = lambda c, p: received.append(p.payload_len)
        conn.send_record(10, tls_record_seq=0)
        sim.run_for(0.5)
        # Simulate a spurious retransmission of the same segment.
        duplicate = Packet(
            src=conn.local, dst=conn.remote, protocol=Protocol.TCP,
            payload_len=10, flags=conn._make_packet(flags=0).flags,
            seq=0, ack=0, tls_type=TlsRecordType.APPLICATION_DATA,
        )
        from repro.net.packet import TcpFlags
        duplicate.flags = TcpFlags.PSH | TcpFlags.ACK
        client.host.send(duplicate)
        sim.run_for(1.0)
        assert received == [10]

    def test_total_loss_aborts_after_retries(self, world):
        sim, network, client, server = world
        tap = _DropTap("tap", IPv4Address("192.168.1.50"), drop_count=10**6)
        network.attach(tap)
        network.install_tap(client.host.ip, tap)
        tuning = TcpTuning(rto=0.5, max_retries=3)
        conn, srv = connect(sim, client, server, tuning=tuning)
        reasons = []
        conn.on_close = lambda c, r: reasons.append(r)
        conn.send_record(10, tls_record_seq=0)
        sim.run_for(20.0)
        assert reasons == ["timeout"]


class TestKeepalive:
    def test_idle_connection_probes_and_survives(self, world):
        sim, network, client, server = world
        tuning = TcpTuning(keepalive_idle=5.0, keepalive_interval=1.0)
        conn, srv = connect(sim, client, server, tuning=tuning)
        sim.run_for(30.0)
        assert conn.state is TcpState.ESTABLISHED
        assert srv.state is TcpState.ESTABLISHED

    def test_unanswered_probes_abort(self, world):
        sim, network, client, server = world
        tuning = TcpTuning(keepalive_idle=5.0, keepalive_interval=1.0, keepalive_probes=2)
        conn, srv = connect(sim, client, server, tuning=tuning)
        # A black-hole tap eats everything from the client from now on.
        tap = _DropTap("tap", IPv4Address("192.168.1.50"), drop_count=0)
        tap.intercept = lambda packet: None  # type: ignore[assignment]
        network.attach(tap)
        network.install_tap(client.host.ip, tap)
        reasons = []
        conn.on_close = lambda c, r: reasons.append(r)
        sim.run_for(60.0)
        assert reasons == ["timeout"]


class _BlackHoleTap(TapHost):
    """Eats every packet it intercepts."""

    def intercept(self, packet):
        pass


def _pure_ack(conn, ack):
    """A bare ACK from ``conn``'s peer acknowledging up to ``ack``."""
    return Packet(src=conn.remote, dst=conn.local, protocol=Protocol.TCP,
                  flags=TcpFlags.ACK, seq=0, ack=ack)


class TestPureAckPaths:
    """Bare ACKs take a shortcut through ``TcpConnection.handle`` on
    established connections; every other state keeps the full walk."""

    def test_ack_completing_syn_rcvd_establishes(self, world):
        sim, network, client, server = world
        accepted = []
        established = []

        def accept(conn):
            assert conn.state is TcpState.SYN_RCVD
            conn.on_established = established.append
            accepted.append(conn)

        server.listen(443, accept)
        client.connect(Endpoint(server.host.ip, 443))
        sim.run_for(1.0)
        assert len(accepted) == 1
        assert accepted[0].state is TcpState.ESTABLISHED
        assert established == accepted

    def test_go_back_n_resends_next_hole_before_rto(self, world):
        sim, network, client, server = world
        tap = _DropTap("tap", IPv4Address("192.168.1.50"), drop_count=2)
        network.attach(tap)
        network.install_tap(client.host.ip, tap)
        conn, srv = connect(sim, client, server, tuning=TcpTuning(rto=1.0))
        received = []
        srv.on_record = lambda c, p: received.append(p.payload_len)
        for size in (10, 20, 30):
            conn.send_record(size, tls_record_seq=0)
        # One RTO retransmits the first hole; the (pure) ACK for it must
        # resend the second hole at once, not a second RTO later.
        sim.run_for(1.5)
        assert received == [10, 20, 30]
        assert conn.retransmissions == 2

    @pytest.mark.parametrize("state", [TcpState.FIN_WAIT, TcpState.CLOSE_WAIT])
    def test_ack_clears_unacked_data_while_closing(self, world, state):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        tap = _BlackHoleTap("tap", IPv4Address("192.168.1.50"))
        network.attach(tap)
        network.install_tap(client.host.ip, tap)
        conn.send_record(10, tls_record_seq=0)
        # The model passes through CLOSE_WAIT inside one handle() call,
        # so both closing states are entered directly here.
        conn.state = state
        client.receive(_pure_ack(conn, conn.snd_next))
        sim.run_for(3.0)
        assert conn.retransmissions == 0
        assert conn.state is state

    def test_unacked_data_retransmits_without_the_ack(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        tap = _BlackHoleTap("tap", IPv4Address("192.168.1.50"))
        network.attach(tap)
        network.install_tap(client.host.ip, tap)
        conn.send_record(10, tls_record_seq=0)
        conn.state = TcpState.FIN_WAIT
        sim.run_for(3.0)
        assert conn.retransmissions > 0

    def test_probe_reply_resets_probe_count(self, world):
        sim, network, client, server = world
        probes = []
        network.add_observer(
            lambda p, scope: probes.append(sim.now) if TcpFlags.KEEPALIVE in p.flags else None)
        tuning = TcpTuning(keepalive_idle=5.0, keepalive_interval=1.0, keepalive_probes=1)
        conn, srv = connect(sim, client, server, tuning=tuning)
        sim.run_for(5.5)
        assert probes, "no keepalive probe was sent"
        assert conn._probes_sent == 0
        # With a budget of one probe, a reply that failed to reset the
        # count would abort the connection at the next idle period.
        sim.run_for(60.0)
        assert len(probes) > 2
        assert conn.state is TcpState.ESTABLISHED
        assert srv.state is TcpState.ESTABLISHED

    def test_observer_added_after_traffic_sees_later_packets(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        conn.send_record(10, tls_record_seq=0)
        sim.run_for(1.0)
        seen = []
        network.add_observer(lambda p, scope: seen.append((p.number, scope)))
        before = network.delivered_count
        for size in (10, 20, 30):
            conn.send_record(size, tls_record_seq=0)
        sim.run_for(1.0)
        assert len(seen) == network.delivered_count - before == 6
        assert {scope for _, scope in seen} == {"wan"}


class _RecordingTap(TapHost):
    """Records every packet it intercepts, then bridges it."""

    def __init__(self, name, ip):
        super().__init__(name, ip)
        self.seen = []

    def intercept(self, packet):
        self.seen.append(packet.payload_len)
        self.bridge(packet)


class TestRouteLifetime:
    """A connection holds its route until the topology changes."""

    def test_route_follows_tap_install_and_removal(self, world):
        sim, network, client, server = world
        tap = _RecordingTap("tap", IPv4Address("192.168.1.50"))
        network.attach(tap)
        conn, srv = connect(sim, client, server)
        received = []
        srv.on_record = lambda c, p: received.append(p.payload_len)
        conn.send_record(11, tls_record_seq=0)
        sim.run_for(1.0)
        assert tap.seen == []
        network.install_tap(client.host.ip, tap)
        conn.send_record(22, tls_record_seq=1)
        sim.run_for(1.0)
        assert 22 in tap.seen
        network.remove_tap(client.host.ip)
        seen_before = len(tap.seen)
        conn.send_record(33, tls_record_seq=2)
        sim.run_for(1.0)
        assert len(tap.seen) == seen_before
        assert received == [11, 22, 33]

    @pytest.mark.parametrize("change", ["attach", "add_alias"])
    def test_topology_change_re_resolves_the_route(self, world, monkeypatch, change):
        sim, network, client, server = world
        conn, _ = connect(sim, client, server)
        resolved = []
        path_for = network._path_for

        def spy(origin, packet):
            resolved.append((origin.name, packet.payload_len))
            return path_for(origin, packet)

        monkeypatch.setattr(network, "_path_for", spy)
        conn.send_record(10, tls_record_seq=0)
        sim.run_for(1.0)
        assert ("client", 10) not in resolved  # the held route, no lookup
        if change == "attach":
            network.attach(Host("other", IPv4Address("192.168.1.77")))
        else:
            network.add_alias(server.host, IPv4Address("54.1.1.2"))
        conn.send_record(20, tls_record_seq=1)
        sim.run_for(1.0)
        assert ("client", 20) in resolved


def _black_holed(world):
    """An established pair whose client-side segments vanish from now on,
    so ACKs reach the client only when a test hands them over."""
    sim, network, client, server = world
    conn, srv = connect(sim, client, server, tuning=TcpTuning(rto=1.0))
    tap = _BlackHoleTap("tap", IPv4Address("192.168.1.50"))
    network.attach(tap)
    network.install_tap(client.host.ip, tap)
    return sim, client, conn, srv


class TestAckBookkeeping:
    """The established fast path of ``handle`` clears a fully
    acknowledged send queue inline; partial ACKs keep the full
    ``_process_ack`` walk."""

    def test_partial_ack_keeps_head_and_restarts_rto(self, world):
        sim, client, conn, srv = _black_holed(world)
        for size in (10, 20, 30):
            conn.send_record(size, tls_record_seq=0)
        first_deadline = conn._rto_timer.deadline
        sim.run_for(0.4)
        client.receive(_pure_ack(conn, conn._unacked[0][0]))
        assert [end for end, _ in conn._unacked] == [30, 60]
        assert conn._unacked[0][1].payload_len == 20
        assert conn._rto_timer.deadline == sim.now + 1.0 > first_deadline
        sim.run_for(0.9)  # past the first deadline, short of the restarted one
        assert conn.retransmissions == 0
        sim.run_for(0.2)
        assert conn.retransmissions == 1

    def test_full_ack_clears_queue_and_disarms_rto(self, world):
        sim, client, conn, srv = _black_holed(world)
        for size in (10, 20):
            conn.send_record(size, tls_record_seq=0)
        assert conn._rto_timer.armed
        client.receive(_pure_ack(conn, conn.snd_next))
        assert conn._unacked == []
        assert not conn._rto_timer.armed
        sim.run_for(5.0)
        assert conn.retransmissions == 0
        # The next record re-arms from scratch.
        conn.send_record(5, tls_record_seq=0)
        assert conn._rto_timer.deadline == sim.now + 1.0

    @pytest.mark.parametrize("carrier", ["pure-ack", "data"])
    def test_ack_of_retransmission_resends_next_hole(self, world, carrier):
        sim, client, conn, srv = _black_holed(world)
        for size in (10, 20, 30):
            conn.send_record(size, tls_record_seq=0)
        sim.run_for(1.05)  # one RTO: the head is retransmitted
        assert conn.retransmissions == 1 and conn._recovering
        delivered = []
        conn.on_record = lambda c, p: delivered.append(p.payload_len)
        ack = _pure_ack(conn, 10)
        if carrier == "data":
            ack.flags = TcpFlags.PSH | TcpFlags.ACK
            ack.payload_len = 7
            ack.seq = conn.rcv_next
        client.receive(ack)
        # Go-back-N: the ACK confirming the retransmission resends the
        # next hole at once, without waiting for another RTO.
        assert conn.retransmissions == 2
        assert [end for end, _ in conn._unacked] == [30, 60]
        assert delivered == ([7] if carrier == "data" else [])
        client.receive(_pure_ack(conn, conn.snd_next))
        assert conn._unacked == [] and not conn._recovering
        assert not conn._rto_timer.armed


class TestEphemeralPorts:
    def test_wrapped_counter_skips_live_four_tuples(self, world):
        sim, network, client, server = world
        first, srv = connect(sim, client, server)
        assert first.local.port == 49201
        client._ephemeral = 65000  # the next port wraps back to 49201
        second = client.connect(Endpoint(server.host.ip, 443))
        sim.run_for(1.0)
        assert second.local.port == 49202
        assert client.connection_count == 2
        assert first.state is TcpState.ESTABLISHED
        assert second.state is TcpState.ESTABLISHED
        received = []
        srv.on_record = lambda c, p: received.append(p.payload_len)
        first.send_record(10, tls_record_seq=0)
        sim.run_for(1.0)
        assert received == [10]

    def test_exhausted_port_range_raises(self, world, monkeypatch):
        sim, network, client, server = world
        monkeypatch.setattr(tcp, "_EPHEMERAL_LAST", 49202)
        connect(sim, client, server)
        client.connect(Endpoint(server.host.ip, 443))
        with pytest.raises(NetworkError):
            client.connect(Endpoint(server.host.ip, 443))

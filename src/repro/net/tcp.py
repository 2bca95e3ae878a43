"""Simplified but stateful TCP.

The model keeps exactly the machinery the paper's Traffic Handler
depends on:

* a three-way handshake, so connection establishment is observable as
  packets (the AVS *connection signature* rides on the first data
  segments after the handshake);
* sequence/acknowledgement numbers with retransmission and a bounded
  number of retries, so a middlebox that silently drops packets (the
  firewall baseline) kills the connection, while one that ACKs locally
  (the transparent proxy) keeps it alive for dozens of seconds;
* keepalive probes, which the proxy must answer during a hold;
* FIN/RST teardown, so a TLS-level violation can close the session and
  the speaker can observably reconnect.

Endpoints communicate only through packets on the network — there is no
shared connection object — which is what allows a transparent proxy to
terminate one side and impersonate the other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConnectionClosedError, NetworkError
from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Host
from repro.net.packet import Packet, Protocol, TcpFlags, TlsRecordType
from repro.sim.process import DeadlineTimer

# Integer flag masks and pre-built combinations: ``enum.Flag``'s
# ``__contains__`` / ``__or__`` dominate the per-segment profile, while
# one ``_value_`` read plus int ``&`` per check does not.  (``_value_``
# is the member's plain attribute; ``.value`` goes through a descriptor
# call on every read.)
_SYN = TcpFlags.SYN.value
_ACK = TcpFlags.ACK.value
_FIN = TcpFlags.FIN.value
_RST = TcpFlags.RST.value
_KEEPALIVE = TcpFlags.KEEPALIVE.value
_SYN_ACK = TcpFlags.SYN | TcpFlags.ACK
_PSH_ACK = TcpFlags.PSH | TcpFlags.ACK
_PSH_ACK_BITS = _PSH_ACK.value
_FIN_ACK = TcpFlags.FIN | TcpFlags.ACK
_KEEPALIVE_ACK = TcpFlags.KEEPALIVE | TcpFlags.ACK
# Members the per-segment paths use, read once: on Python 3.11 reading
# a member off its enum class costs about 0.13 us, a global about 0.01.
_ACK_FLAG = TcpFlags.ACK
_TCP = Protocol.TCP

# Client ports handed out by TcpStack.connect, in order, wrapping around.
_EPHEMERAL_FIRST = 49201
_EPHEMERAL_LAST = 65000


class TcpState(enum.Enum):
    """Connection states (simplified TCP)."""
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn_sent"
    SYN_RCVD = "syn_rcvd"
    ESTABLISHED = "established"
    FIN_WAIT = "fin_wait"
    CLOSE_WAIT = "close_wait"


@dataclass
class TcpTuning:
    """Timer knobs; defaults approximate consumer-device stacks."""

    rto: float = 1.0
    max_retries: int = 5
    keepalive_idle: float = 45.0
    keepalive_interval: float = 5.0
    keepalive_probes: int = 3


_ESTABLISHED = TcpState.ESTABLISHED  # see _ACK_FLAG
# States in which received data reaches ``on_record``.
_DELIVERING = (TcpState.ESTABLISHED, TcpState.FIN_WAIT)


class TcpConnection:
    """One side of a TCP connection.

    Application hooks:

    ``on_established(conn)``
        fired when the handshake completes,
    ``on_record(conn, packet)``
        fired for every received data segment,
    ``on_close(conn, reason)``
        fired once when the connection leaves ESTABLISHED for good.
        ``reason`` is one of ``"fin"``, ``"rst"``, ``"timeout"``,
        ``"local"``.
    """

    def __init__(
        self,
        stack: "TcpStack",
        local: Endpoint,
        remote: Endpoint,
        tuning: Optional[TcpTuning] = None,
    ) -> None:
        self.stack = stack
        self.local = local
        self.remote = remote
        self.tuning = tuning or TcpTuning()
        self.state = TcpState.CLOSED
        self.on_established: Optional[Callable[[TcpConnection], None]] = None
        self.on_record: Optional[Callable[[TcpConnection, Packet], None]] = None
        self.on_close: Optional[Callable[[TcpConnection, str], None]] = None

        self.snd_next = 0
        self.rcv_next = 0
        # Sent-but-unacknowledged data segments as (seq_end, packet),
        # oldest first.  Only the head is ever retransmitted, and a
        # segment becomes the head once, so one retry counter suffices.
        self._unacked: List[Tuple[int, Packet]] = []
        self._head_retries = 0
        self._out_of_order: dict = {}  # seq -> data packet awaiting gap fill
        self._recovering = False
        network = stack.host.network
        self._sim = network.sim if network is not None else None
        # The route every segment of this connection takes (see
        # Network.send), resolved on the first send and again whenever
        # the network's topology_version moves past _route_version.
        self._route: Optional[tuple] = None
        self._route_version = -1
        # Deadline-bumping timers: zero heap traffic per advancing ACK.
        self._rto_timer: Optional[DeadlineTimer] = None
        self._keepalive_timer: Optional[DeadlineTimer] = None
        self._probes_sent = 0
        self._last_rx_time = 0.0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmissions = 0
        self.close_reason: Optional[str] = None

    # -- identity -------------------------------------------------------
    @property
    def sim(self):
        """The simulator this connection runs on."""
        sim = self._sim
        if sim is None:
            sim = self._sim = self.stack.host.network.sim
        return sim

    @property
    def four_tuple(self) -> Tuple[Endpoint, Endpoint]:
        """(local, remote) endpoints identifying the connection."""
        return (self.local, self.remote)

    @property
    def is_established(self) -> bool:
        """Whether data can currently be sent."""
        return self.state is _ESTABLISHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TcpConnection({self.local} <-> {self.remote}, {self.state.value})"

    # -- opening --------------------------------------------------------
    def open_active(self) -> None:
        """Client side: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise NetworkError(f"cannot open connection in state {self.state}")
        self.state = TcpState.SYN_SENT
        self._transmit(self._make_packet(TcpFlags.SYN))
        self._arm_rto()

    # -- sending --------------------------------------------------------
    def send_record(
        self,
        payload_len: int,
        tls_type: TlsRecordType = TlsRecordType.APPLICATION_DATA,
        tls_record_seq: Optional[int] = None,
        meta: Optional[dict] = None,
    ) -> Packet:
        """Send one TLS record as a data segment."""
        if self.state is not _ESTABLISHED:
            raise ConnectionClosedError(
                f"send on {self.local}->{self.remote} in state {self.state.value}"
            )
        seq = self.snd_next
        # Positional arguments: keyword parsing is a third of the cost
        # of building a packet, and this runs for every record sent.
        packet = Packet(self.local, self.remote, _TCP, payload_len, _PSH_ACK, seq,
                        self.rcv_next, tls_type, tls_record_seq,
                        dict(meta) if meta else None)
        self.snd_next = seq_end = seq + payload_len
        self.bytes_sent += payload_len
        self._unacked.append((seq_end, packet))
        # _transmit() inlined.
        host = self.stack.host
        network = host.network
        if self._route_version == network.topology_version:
            network.send(host, packet, self._route)
        else:
            self._transmit(packet)
        # _arm_rto() inlined: an armed RTO keeps its deadline, and a
        # disarmed one (the idle case: the last ACK cleared it) goes
        # straight to the timer.
        timer = self._rto_timer
        if timer is None:
            self._arm_rto()
        elif timer._deadline is None:
            timer.schedule_at(self._sim._clock._now + self.tuning.rto)
        return packet

    def close(self) -> None:
        """Orderly local close (FIN)."""
        if self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT, TcpState.SYN_RCVD):
            self._transmit(self._make_packet(_FIN_ACK))
            previous = self.state
            self.state = TcpState.FIN_WAIT
            if previous is TcpState.CLOSE_WAIT:
                self._finish("fin")

    def abort(self, reason: str = "local") -> None:
        """Send RST and drop all state immediately."""
        if self.state not in (TcpState.CLOSED,):
            try:
                self._transmit(self._make_packet(TcpFlags.RST))
            finally:
                self._finish(reason)

    # -- receiving ------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        """Process one inbound packet for this connection."""
        self._last_rx_time = now = self._sim._clock._now
        self._probes_sent = 0
        # Bump the idle deadline instead of letting the keepalive wake
        # up every <idle> seconds just to discover traffic arrived and
        # re-arm — on a heartbeating connection that wander loop is one
        # pure-bookkeeping callback per heartbeat.  Bumping a deadline
        # is a float store (no heap traffic, see DeadlineTimer), and
        # the callback now only runs when the link is genuinely idle.
        timer = self._keepalive_timer
        if timer is not None and timer._deadline is not None:
            deadline = now + self.tuning.keepalive_idle
            next_fire = timer._next_fire
            if next_fire is not None and next_fire <= deadline:
                # DeadlineTimer.schedule_at's no-heap-traffic case,
                # inlined: a wakeup is already queued at or before the
                # new deadline and will re-arm for the remainder.
                timer._deadline = deadline
            else:
                timer.schedule_at(deadline)
        flag_bits = packet.flags._value_
        state = self.state

        if state is _ESTABLISHED and (flag_bits == _ACK or flag_bits == _PSH_ACK_BITS):
            # A pure ACK or a data segment on an open connection: nearly
            # every segment.  Skips the flag-by-flag walk below.
            unacked = self._unacked
            if unacked:
                if unacked[-1][0] <= packet.ack:
                    # Everything acknowledged (one record in flight, the
                    # idle heartbeat case): _process_ack's full-clear
                    # branch, inlined.
                    unacked.clear()
                    self._head_retries = 0
                    self._recovering = False
                    self._rto_timer._deadline = None
                else:
                    self._process_ack(packet.ack)
            if packet.payload_len:
                self._receive_data(packet)
            return

        if flag_bits & _RST:
            self._finish("rst")
            return

        if state is TcpState.SYN_SENT:
            if flag_bits & _SYN and flag_bits & _ACK:
                self.state = TcpState.ESTABLISHED
                self._cancel_rto()
                self._clear_unacked()
                self._transmit(self._make_packet(_ACK_FLAG))
                self._arm_keepalive()
                if self.on_established:
                    self.on_established(self)
            return

        if state is TcpState.SYN_RCVD:
            if flag_bits & _ACK:
                self.state = TcpState.ESTABLISHED
                self._arm_keepalive()
                if self.on_established:
                    self.on_established(self)
            # fall through: the ACK may carry data in theory; ours never do
            if packet.payload_len == 0:
                return

        if flag_bits & _KEEPALIVE:
            # Answer the probe with a bare ACK.
            self._transmit(self._make_packet(_ACK_FLAG))
            return

        if flag_bits & _ACK and self._unacked:
            self._process_ack(packet.ack)

        if packet.payload_len > 0:
            self._receive_data(packet)

        if flag_bits & _FIN:
            if self.state is TcpState.ESTABLISHED:
                self.state = TcpState.CLOSE_WAIT
                self._transmit(self._make_packet(_ACK_FLAG))
                # Consumer devices close promptly in response.
                self._transmit(self._make_packet(_FIN_ACK))
                self._finish("fin")
            elif self.state is TcpState.FIN_WAIT:
                self._transmit(self._make_packet(_ACK_FLAG))
                self._finish("fin")

    # -- internals ------------------------------------------------------
    def _make_packet(self, flags: TcpFlags) -> Packet:
        """A bare control segment (no payload) at the current seq/ack."""
        return Packet(self.local, self.remote, _TCP, 0, flags, self.snd_next, self.rcv_next)

    def _transmit(self, packet: Packet) -> None:
        # Inlined Host.send: one Python frame per packet matters here.
        host = self.stack.host
        network = host.network
        if self._route_version == network.topology_version:
            network.send(host, packet, self._route)
        else:
            self._route = network.send(host, packet)
            self._route_version = network.topology_version

    def _receive_data(self, packet: Packet) -> None:
        """In-order delivery with reordering and duplicate suppression.

        Out-of-order segments (earlier ones were dropped by a middlebox
        and are being retransmitted) are buffered and delivered once the
        gap fills; duplicates of already-delivered data are only ACKed.
        """
        if packet.seq > self.rcv_next:
            self._out_of_order.setdefault(packet.seq, packet)
            self._transmit(self._make_packet(_ACK_FLAG))
            return
        if packet.seq < self.rcv_next:
            # Duplicate of delivered data: re-ACK, do not re-deliver.
            self._transmit(self._make_packet(_ACK_FLAG))
            return
        # _deliver() inlined for the in-order segment.
        self.rcv_next = packet.seq + packet.payload_len
        self.bytes_received += packet.payload_len
        if self.on_record and self.state in _DELIVERING:
            self.on_record(self, packet)
        out_of_order = self._out_of_order
        if out_of_order:
            while self.rcv_next in out_of_order:
                self._deliver(out_of_order.pop(self.rcv_next))
        ack = Packet(self.local, self.remote, _TCP, 0, _ACK_FLAG, self.snd_next, self.rcv_next)
        # _transmit() inlined.
        host = self.stack.host
        network = host.network
        if self._route_version == network.topology_version:
            network.send(host, ack, self._route)
        else:
            self._transmit(ack)

    def _deliver(self, packet: Packet) -> None:
        self.rcv_next = packet.seq + packet.payload_len
        self.bytes_received += packet.payload_len
        if self.on_record and self.state in _DELIVERING:
            self.on_record(self, packet)

    def _process_ack(self, ack: int) -> None:
        unacked = self._unacked
        # seq_end values are strictly increasing (appends follow
        # snd_next), so acknowledged segments form a prefix.
        cleared = 0
        total = len(unacked)
        while cleared < total and unacked[cleared][0] <= ack:
            cleared += 1
        if cleared == 0:
            return
        del unacked[:cleared]
        self._head_retries = 0
        if unacked:
            self._arm_rto(restart=True)
            if self._recovering:
                # Go-back-N style recovery: once an ACK confirms a
                # retransmission landed, resend the next hole right
                # away instead of waiting a full RTO.
                self._retransmit_head()
        else:
            self._recovering = False
            self._rto_timer._deadline = None

    def _clear_unacked(self) -> None:
        self._unacked.clear()
        self._head_retries = 0

    def _arm_rto(self, restart: bool = False) -> None:
        timer = self._rto_timer
        if timer is None:
            timer = self._rto_timer = DeadlineTimer(self.sim, self._on_rto)
        if restart or timer._deadline is None:
            timer.schedule_at(self._sim._clock._now + self.tuning.rto)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()

    def _on_rto(self) -> None:
        if self.state is TcpState.SYN_SENT:
            self._transmit(self._make_packet(TcpFlags.SYN))
            self._arm_rto()
            return
        if not self._unacked:
            return
        self._recovering = True
        self._retransmit_head()
        self._arm_rto()

    def _retransmit_head(self) -> None:
        if not self._unacked:
            return
        original = self._unacked[0][1]
        self._head_retries += 1
        if self._head_retries > self.tuning.max_retries:
            self.abort("timeout")
            return
        self.retransmissions += 1
        retransmit = Packet(original.src, original.dst, _TCP, original.payload_len,
                            original.flags, original.seq, self.rcv_next, original.tls_type,
                            original.tls_record_seq,
                            dict(original.meta, retransmission=True))
        self._transmit(retransmit)

    def _arm_keepalive(self) -> None:
        self._schedule_keepalive(self.tuning.keepalive_idle)

    def _schedule_keepalive(self, delay: float) -> None:
        timer = self._keepalive_timer
        if timer is None:
            timer = self._keepalive_timer = DeadlineTimer(self.sim, self._on_keepalive_timer)
        timer.schedule_in(delay)

    def _on_keepalive_timer(self) -> None:
        if self.state is not TcpState.ESTABLISHED:
            return
        idle = self.sim.now - self._last_rx_time
        remaining = self.tuning.keepalive_idle - idle
        if remaining > 1e-6:
            # Traffic arrived since; re-arm for the remainder (floored
            # so float residue cannot freeze simulated time).
            self._schedule_keepalive(max(remaining, 0.05))
            return
        if self._probes_sent >= self.tuning.keepalive_probes:
            self.abort("timeout")
            return
        self._probes_sent += 1
        self._transmit(self._make_packet(_KEEPALIVE_ACK))
        self._schedule_keepalive(self.tuning.keepalive_interval)

    def _finish(self, reason: str) -> None:
        if self.state is TcpState.CLOSED:
            return
        self.state = TcpState.CLOSED
        self.close_reason = reason
        self._cancel_rto()
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
        self._clear_unacked()
        self.stack.forget(self)
        if self.on_close:
            self.on_close(self, reason)


@dataclass
class _Listener:
    port: int
    accept: Callable[[TcpConnection], None]
    transparent: bool = False
    tuning: Optional[TcpTuning] = None


class TcpStack:
    """Per-host TCP demultiplexer.

    Supports *transparent* listeners (accepting SYNs addressed to other
    hosts' IPs) and spoofed local endpoints for outgoing connections —
    the two capabilities a transparent proxy needs.
    """

    def __init__(self, host: Host) -> None:
        self.host = host
        host.register_tcp_stack(self)
        self._connections: Dict[Tuple[Endpoint, Endpoint], TcpConnection] = {}
        self._listeners: Dict[int, _Listener] = {}
        self._ephemeral = _EPHEMERAL_FIRST - 1

    # -- API ------------------------------------------------------------
    def listen(
        self,
        port: int,
        accept: Callable[[TcpConnection], None],
        transparent: bool = False,
        tuning: Optional[TcpTuning] = None,
    ) -> None:
        """Accept connections on ``port`` (optionally transparently)."""
        if port in self._listeners:
            raise NetworkError(f"port {port} already listening on {self.host.name}")
        self._listeners[port] = _Listener(port, accept, transparent, tuning)

    def connect(
        self,
        remote: Endpoint,
        local_ip=None,
        tuning: Optional[TcpTuning] = None,
    ) -> TcpConnection:
        """Open a client connection; ``local_ip`` may spoof another host."""
        ip = local_ip if local_ip is not None else self.host.ip
        local = self._free_local(ip, remote)
        connection = TcpConnection(self, local, remote, tuning)
        self._connections[connection.four_tuple] = connection
        connection.open_active()
        return connection

    def forget(self, connection: TcpConnection) -> None:
        """Drop a closed connection from the demux table."""
        self._connections.pop(connection.four_tuple, None)

    @property
    def connection_count(self) -> int:
        """Live connections in the demux table."""
        return len(self._connections)

    # -- demux ----------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Demultiplex one inbound TCP packet."""
        key = (packet.dst, packet.src)
        connection = self._connections.get(key)
        if connection is not None:
            connection.handle(packet)
            return
        flag_bits = packet.flags._value_
        if flag_bits & _SYN and not flag_bits & _ACK:
            self._accept_syn(packet)
        # Anything else for an unknown connection is silently ignored, as
        # a real host would answer with RST; the simulation has no
        # scanners, so the distinction never matters.

    def _accept_syn(self, packet: Packet) -> None:
        listener = self._listeners.get(packet.dst.port)
        if listener is None:
            return
        local_ips = {self.host.ip} | self.host.aliases
        if not listener.transparent and packet.dst.ip not in local_ips:
            return
        connection = TcpConnection(self, packet.dst, packet.src, listener.tuning)
        connection.state = TcpState.SYN_RCVD
        self._connections[connection.four_tuple] = connection
        listener.accept(connection)
        connection._transmit(connection._make_packet(_SYN_ACK))

    def _free_local(self, ip: IPv4Address, remote: Endpoint) -> Endpoint:
        """The next ephemeral local endpoint whose 4-tuple to ``remote``
        is not live.  After the port counter wraps, a long-lived
        connection may still hold a port; reusing it would overwrite
        that connection in the demux table."""
        for _ in range(_EPHEMERAL_LAST - _EPHEMERAL_FIRST + 1):
            self._ephemeral += 1
            if self._ephemeral > _EPHEMERAL_LAST:
                self._ephemeral = _EPHEMERAL_FIRST
            local = Endpoint(ip, self._ephemeral)
            if (local, remote) not in self._connections:
                return local
        raise NetworkError(
            f"no free ephemeral port on {self.host.name} for {ip} -> {remote}")

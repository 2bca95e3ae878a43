"""Transparent TCP proxy and UDP forwarder (the Traffic Handler's actuator).

The proxy is installed inline on the smart speaker's IP (paper Figure 2:
the laptop "sits in between the smart speaker and the home WiFi
router").  For every TCP connection the speaker opens it terminates the
client side — impersonating the cloud server — and opens its own spoofed
upstream connection, then splices records between the two.  Because the
speaker's segments are ACKed locally, the proxy can *hold* client
records for dozens of seconds without retransmissions or keepalive
timeouts, then either *release* them upstream (legitimate command) or
*discard* them (malicious command).  Discarding desynchronizes the TLS
record sequence, so the cloud closes the session the next time the
speaker sends a record — exactly the paper's Figure 4 case III.

Google Home Mini may use QUIC over UDP; the :class:`UdpForwarder` holds
and forwards datagrams with the same policy interface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Network, TapHost
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.net.tcp import TcpConnection, TcpStack, TcpState, TcpTuning
from repro.obs.tracer import NULL_SPAN, Observability

_SYN = TcpFlags.SYN.value
_ACK = TcpFlags.ACK.value
# Enum members read per record (see repro.net.tcp._ACK_FLAG).
_TCP = Protocol.TCP
_ESTABLISHED = TcpState.ESTABLISHED


class ForwarderDecision(enum.Enum):
    """Policy verdict for one client record/datagram.

    ``DROP`` matters for UDP/QUIC: there is no record-sequence desync
    to kill a blocked session, so the forwarder must keep discarding a
    blocked flow's datagrams (QUIC would otherwise retransmit the
    command right past the guard).
    """

    FORWARD = "forward"
    HOLD = "hold"
    DROP = "drop"


_FORWARD = ForwarderDecision.FORWARD

# Flow ids are allocated per-proxy (see TransparentProxy._next_flow_id)
# so repeated in-process runs are deterministic; TCP flows and the UDP
# forwarder's flows share the owning proxy's counter, keeping ids unique
# within one guard (the recognizer keys its per-flow state on them).


class HoldBudget:
    """Global byte budget over every hold queue the proxy owns.

    With N speakers' commands in flight concurrently the guard parks
    records for all of them at once; the budget bounds that memory.  A
    charge that would exceed ``limit_bytes`` is refused, which triggers
    the proxy's overflow policy (see ``TransparentProxy.on_hold_overflow``).
    ``limit_bytes=0`` means unlimited: every charge succeeds and only
    the gauges move, so the default is byte-identical to having no
    budget at all.
    """

    def __init__(self, limit_bytes: int = 0, fail_open: bool = False,
                 obs: Optional[Observability] = None) -> None:
        self.limit_bytes = limit_bytes
        self.fail_open = fail_open
        self.held_bytes = 0
        self.held_records = 0
        self.overflows = 0
        metrics = (obs or Observability()).metrics.scope("proxy")
        self._g_bytes = metrics.gauge("held_bytes")
        self._g_records = metrics.gauge("held_records")
        self._m_overflows = metrics.counter("hold_overflows")

    def try_charge(self, nbytes: int) -> bool:
        """Reserve ``nbytes`` for one held record; False on overflow.

        A charge landing exactly on the limit still fits: the budget is
        an inclusive bound on bytes held, not a high-water trigger.
        """
        if self.limit_bytes and self.held_bytes + nbytes > self.limit_bytes:
            self.overflows += 1
            self._m_overflows.inc()
            return False
        self.held_bytes += nbytes
        self.held_records += 1
        self._g_bytes.set(float(self.held_bytes))
        self._g_records.set(float(self.held_records))
        return True

    def credit(self, records: List[HeldRecord]) -> None:
        """Return the bytes of released/discarded records to the pool."""
        if not records:
            return
        self.held_bytes -= sum(record.payload_len for record in records)
        self.held_records -= len(records)
        self._g_bytes.set(float(self.held_bytes))
        self._g_records.set(float(self.held_records))


@dataclass
class HeldRecord:
    """A client record parked in the hold queue."""

    payload_len: int
    tls_type: object
    tls_record_seq: Optional[int]
    meta: dict
    held_at: float


@dataclass
class ProxiedFlow:
    """One spliced client<->server conversation.

    ``client`` is the speaker-side endpoint, ``server`` the cloud-side
    endpoint the speaker believed it was talking to.
    """

    flow_id: int
    protocol: Protocol
    client: Endpoint
    server: Endpoint
    downstream: Optional[TcpConnection] = None
    upstream: Optional[TcpConnection] = None
    held: List[HeldRecord] = field(default_factory=list)
    awaiting_upstream: List[HeldRecord] = field(default_factory=list)
    records_forwarded: int = 0
    records_discarded: int = 0
    closed: bool = False
    close_reason: Optional[str] = None
    span: object = NULL_SPAN

    @property
    def holding(self) -> bool:
        """Whether records are currently parked."""
        return bool(self.held)


# Signature of the per-record policy: (flow, packet) -> decision.
RecordPolicy = Callable[[ProxiedFlow, Packet], ForwarderDecision]
# A record shim interposes between the tap and the record policy: it
# receives the observed packet plus the next stage of the chain and
# returns the decision for the *real* record.  Shims may invoke the
# next stage extra times with phantom packets (observations only — no
# record is forwarded or held for them); traffic-morphing adversaries
# (repro.attacks.morphing) use this to distort what the recognizer
# sees without touching the actual TCP/TLS byte stream.
RecordShim = Callable[[ProxiedFlow, Packet, RecordPolicy], ForwarderDecision]
FlowObserver = Callable[[ProxiedFlow], None]
SnoopObserver = Callable[[Packet], None]
# Budget-overflow hook: resolves the flow's pending window by policy and
# returns what to do with the record that could not be held.
OverflowPolicy = Callable[[ProxiedFlow], ForwarderDecision]


class TransparentProxy(TapHost):
    """The guard laptop's inline packet plane.

    Parameters
    ----------
    name, ip:
        Host identity of the guard laptop on the LAN.
    proxied_ports:
        TCP destination ports to terminate (443 for both speakers).
        Traffic to other ports (e.g. DNS/53 UDP) is bridged untouched
        but still reported to ``snoop`` observers.
    """

    def __init__(
        self,
        name: str,
        ip: IPv4Address,
        proxied_ports: Tuple[int, ...] = (443,),
        tuning: Optional[TcpTuning] = None,
        obs: Optional[Observability] = None,
        hold_budget: Optional[HoldBudget] = None,
    ) -> None:
        super().__init__(name, ip)
        self.stack = TcpStack(self)
        self._tuning = tuning or TcpTuning()
        obs = obs or Observability()
        self.tracer = obs.tracer
        metrics = obs.metrics.scope("proxy")
        self._m_flows = metrics.counter("flows_opened")
        self._m_forwarded = metrics.counter("records_forwarded")
        self._m_held = metrics.counter("records_held")
        self._m_discarded = metrics.counter("records_discarded")
        self.proxied_ports = tuple(proxied_ports)
        self.hold_budget = hold_budget or HoldBudget(obs=obs)
        self.on_hold_overflow: Optional[OverflowPolicy] = None
        self.record_policy: Optional[RecordPolicy] = None
        self._record_shims: List[RecordShim] = []
        self.on_flow_opened: Optional[FlowObserver] = None
        self.on_flow_closed: Optional[FlowObserver] = None
        self._snoopers: List[SnoopObserver] = []
        self._flows_by_downstream: Dict[Tuple[Endpoint, Endpoint], ProxiedFlow] = {}
        self.flows: List[ProxiedFlow] = []
        self.udp_forwarder: Optional["UdpForwarder"] = None
        self._last_flow_id = 0
        for port in self.proxied_ports:
            self.stack.listen(port, self._accept_downstream, transparent=True, tuning=self._tuning)

    def _next_flow_id(self) -> int:
        self._last_flow_id += 1
        return self._last_flow_id

    # -- installation ---------------------------------------------------
    def install(self, network: Network, covered_ip: IPv4Address) -> None:
        """Attach to ``network`` and interpose on ``covered_ip``."""
        if self.network is None:
            network.attach(self)
        network.install_tap(covered_ip, self)

    def add_snooper(self, snooper: SnoopObserver) -> None:
        """Observe every tapped packet (the guard snoops DNS this way)."""
        self._snoopers.append(snooper)

    def install_record_shim(self, shim: RecordShim) -> None:
        """Interpose ``shim`` between the tap and the record policy.

        Shims stack: the most recently installed one runs first and
        receives the rest of the chain (ending at ``record_policy``) as
        its continuation.  With no shims installed this path is exactly
        the old direct policy call, byte for byte.
        """
        self._record_shims.append(shim)

    def _policy_decision(self, flow: ProxiedFlow, packet: Packet) -> ForwarderDecision:
        """Run the shim chain, then the record policy."""
        return self._run_policy_chain(len(self._record_shims), flow, packet)

    def _run_policy_chain(self, depth: int, flow: ProxiedFlow,
                          packet: Packet) -> ForwarderDecision:
        if depth == 0:
            if self.record_policy is None:
                return ForwarderDecision.FORWARD
            return self.record_policy(flow, packet)
        shim = self._record_shims[depth - 1]
        return shim(flow, packet,
                    partial(self._run_policy_chain, depth - 1))

    # -- tap entry point --------------------------------------------------
    def intercept(self, packet: Packet) -> None:
        """Tap entry point: demux to the stack, forwarder, or bridge."""
        for snooper in self._snoopers:
            snooper(packet)
        if packet.protocol is _TCP:
            # One demux lookup: a segment of a terminated connection
            # goes straight to it; only a new SYN needs the stack.
            connection = self.stack._connections.get((packet.dst, packet.src))
            if connection is not None:
                connection.handle(packet)
                return
            flag_bits = packet.flags._value_
            if (
                flag_bits & _SYN
                and not flag_bits & _ACK
                and packet.dst.port in self.proxied_ports
            ):
                self.stack.receive(packet)
                return
            self.bridge(packet)
            return
        if self.udp_forwarder is not None and self.udp_forwarder.claims(packet):
            self.udp_forwarder.handle(packet)
            return
        self.bridge(packet)

    # -- downstream (speaker-side) ---------------------------------------
    def _accept_downstream(self, downstream: TcpConnection) -> None:
        flow = ProxiedFlow(
            flow_id=self._next_flow_id(),
            protocol=Protocol.TCP,
            client=downstream.remote,
            server=downstream.local,
        )
        flow.downstream = downstream
        self._flows_by_downstream[downstream.four_tuple] = flow
        self.flows.append(flow)
        self._m_flows.inc()
        flow.span = self.tracer.begin(
            "proxy.flow", flow_id=flow.flow_id, protocol=flow.protocol.value,
            client=str(flow.client), server=str(flow.server),
        )
        # ``functools.partial`` over bound methods rather than lambdas:
        # these callbacks live on connections that outlast this call, and
        # the pickled world snapshots of repro.experiments.pool must
        # restore them.  Pickle rebinds a partial's bound method and args
        # into the restored object graph; it rejects a lambda outright.
        downstream.on_record = partial(self._on_client_record, flow)
        downstream.on_close = partial(self._on_downstream_close, flow)
        downstream.on_established = partial(self._open_upstream, flow)

    def _open_upstream(self, flow: ProxiedFlow, _conn: Optional[TcpConnection] = None) -> None:
        upstream = self.stack.connect(
            flow.server, local_ip=flow.client.ip, tuning=self._tuning
        )
        flow.upstream = upstream
        upstream.on_record = partial(self._on_server_record, flow)
        upstream.on_close = partial(self._on_upstream_close, flow)
        upstream.on_established = partial(self._flush_awaiting, flow)
        if self.on_flow_opened:
            self.on_flow_opened(flow)

    def _on_client_record(self, flow: ProxiedFlow, conn: TcpConnection,
                          packet: Packet) -> None:
        if self._record_shims:
            decision = self._policy_decision(flow, packet)
        elif self.record_policy is not None:
            decision = self.record_policy(flow, packet)
        else:
            decision = _FORWARD
        if decision is _FORWARD:
            upstream = flow.upstream
            if upstream is not None and upstream.state is _ESTABLISHED:
                # The common case, every idle heartbeat: straight
                # upstream, no HeldRecord.  send_record copies ``meta``.
                upstream.send_record(packet.payload_len, packet.tls_type,
                                     packet.tls_record_seq, packet.meta)
                flow.records_forwarded += 1
                self._m_forwarded.inc()
                return
        elif decision is ForwarderDecision.DROP:
            flow.records_discarded += 1
            self._m_discarded.inc()
            return
        record = HeldRecord(
            payload_len=packet.payload_len,
            tls_type=packet.tls_type,
            tls_record_seq=packet.tls_record_seq,
            meta=dict(packet.meta),
            held_at=self.network.sim.now,
        )
        if decision is ForwarderDecision.HOLD:
            if not self.hold_budget.try_charge(record.payload_len):
                self._overflow_record(flow, record)
                return
            flow.held.append(record)
            self._m_held.inc()
            return
        self._send_upstream(flow, record)

    def _overflow_record(self, flow: ProxiedFlow, record: HeldRecord) -> None:
        """The budget refused a hold: shed load per the overflow policy.

        The policy hook first resolves the flow's pending window (so its
        bytes come back to the pool), then tells us what the unheld
        record's fate is: forwarded past the guard (fail-open) or dropped
        (fail-closed).
        """
        if self.on_hold_overflow is not None:
            verdict = self.on_hold_overflow(flow)
        else:
            verdict = (ForwarderDecision.FORWARD if self.hold_budget.fail_open
                       else ForwarderDecision.DROP)
        if verdict is ForwarderDecision.FORWARD:
            self._send_upstream(flow, record)
        else:
            flow.records_discarded += 1
            self._m_discarded.inc()

    def _send_upstream(self, flow: ProxiedFlow, record: HeldRecord) -> None:
        upstream = flow.upstream
        if upstream is None or not upstream.is_established:
            flow.awaiting_upstream.append(record)
            return
        upstream.send_record(record.payload_len, record.tls_type, record.tls_record_seq,
                             record.meta)
        flow.records_forwarded += 1
        self._m_forwarded.inc()

    def _flush_awaiting(self, flow: ProxiedFlow,
                        _conn: Optional[TcpConnection] = None) -> None:
        pending, flow.awaiting_upstream = flow.awaiting_upstream, []
        for record in pending:
            self._send_upstream(flow, record)

    # -- hold-queue control (called by the Traffic Handler) ---------------
    def release_held(self, flow: ProxiedFlow) -> int:
        """Forward all held records upstream in order; returns the count."""
        held, flow.held = flow.held, []
        self.hold_budget.credit(held)
        for record in held:
            self._send_upstream(flow, record)
        return len(held)

    def discard_held(self, flow: ProxiedFlow) -> int:
        """Drop all held records; returns the count.

        Subsequent client records continue to be forwarded; the cloud
        will observe the TLS record-sequence gap and close the session.
        """
        held, flow.held = flow.held, []
        self.hold_budget.credit(held)
        flow.records_discarded += len(held)
        self._m_discarded.inc(len(held))
        return len(held)

    # -- upstream (cloud-side) ---------------------------------------------
    def _on_server_record(self, flow: ProxiedFlow, conn: TcpConnection,
                          packet: Packet) -> None:
        downstream = flow.downstream
        if downstream is None or downstream.state is not _ESTABLISHED:
            return
        downstream.send_record(packet.payload_len, packet.tls_type, packet.tls_record_seq,
                               packet.meta)

    # -- teardown propagation ---------------------------------------------
    def _on_downstream_close(self, flow: ProxiedFlow, conn: TcpConnection,
                             reason: str) -> None:
        self._flows_by_downstream.pop(
            flow.downstream.four_tuple if flow.downstream else None, None
        )
        if flow.upstream is not None and flow.upstream.is_established:
            if reason == "rst":
                flow.upstream.abort("peer-rst")
            else:
                flow.upstream.close()
        self._finish_flow(flow, reason)

    def _on_upstream_close(self, flow: ProxiedFlow, conn: TcpConnection,
                           reason: str) -> None:
        if flow.downstream is not None and flow.downstream.is_established:
            if reason == "rst":
                flow.downstream.abort("peer-rst")
            else:
                flow.downstream.close()
        self._finish_flow(flow, reason)

    def _finish_flow(self, flow: ProxiedFlow, reason: str) -> None:
        if flow.closed:
            return
        flow.closed = True
        flow.close_reason = reason
        flow.span.finish(reason=reason, forwarded=flow.records_forwarded,
                         discarded=flow.records_discarded)
        if self.on_flow_closed:
            self.on_flow_closed(flow)

    # -- stats --------------------------------------------------------------
    @property
    def open_flow_count(self) -> int:
        """Flows not yet closed."""
        return sum(1 for flow in self.flows if not flow.closed)


class UdpForwarder:
    """Hold/forward policy for the speaker's UDP (QUIC) datagrams.

    Client→server datagrams pass through the record policy; server→client
    datagrams are always forwarded immediately.
    """

    def __init__(self, proxy: TransparentProxy, covered_ip: IPv4Address, ports: Tuple[int, ...] = (443,)) -> None:
        self.proxy = proxy
        self.covered_ips = {covered_ip}
        self.ports = tuple(ports)
        self._flows: Dict[Tuple[Endpoint, Endpoint], ProxiedFlow] = {}
        proxy.udp_forwarder = self

    def add_covered(self, ip: IPv4Address) -> None:
        """Also forward for another speaker IP (multi-speaker homes)."""
        self.covered_ips.add(ip)

    def claims(self, packet: Packet) -> bool:
        """Whether this datagram belongs to the forwarder."""
        if packet.protocol is not Protocol.UDP:
            return False
        if packet.src.ip in self.covered_ips and packet.dst.port in self.ports:
            return True
        return packet.dst.ip in self.covered_ips and packet.src.port in self.ports

    def handle(self, packet: Packet) -> None:
        """Process one claimed datagram."""
        if packet.src.ip in self.covered_ips:
            self._handle_client(packet)
        else:
            self.proxy.bridge(packet)

    def _handle_client(self, packet: Packet) -> None:
        key = (packet.src, packet.dst)
        flow = self._flows.get(key)
        if flow is None:
            flow = ProxiedFlow(
                flow_id=self.proxy._next_flow_id(),
                protocol=Protocol.UDP,
                client=packet.src,
                server=packet.dst,
            )
            self._flows[key] = flow
            self.proxy.flows.append(flow)
            self.proxy._m_flows.inc()
            flow.span = self.proxy.tracer.begin(
                "proxy.flow", flow_id=flow.flow_id, protocol=flow.protocol.value,
                client=str(flow.client), server=str(flow.server),
            )
            if self.proxy.on_flow_opened:
                self.proxy.on_flow_opened(flow)
        decision = self.proxy._policy_decision(flow, packet)
        if decision is ForwarderDecision.DROP:
            flow.records_discarded += 1
            self.proxy._m_discarded.inc()
            return
        record = HeldRecord(
            payload_len=packet.payload_len,
            tls_type=packet.tls_type,
            tls_record_seq=packet.tls_record_seq,
            meta=dict(packet.meta),
            held_at=self.proxy.network.sim.now,
        )
        if decision is ForwarderDecision.HOLD:
            if not self.proxy.hold_budget.try_charge(record.payload_len):
                self._overflow_datagram(flow, record)
                return
            flow.held.append(record)
            self.proxy._m_held.inc()
        else:
            self._forward(flow, record)

    def _overflow_datagram(self, flow: ProxiedFlow, record: HeldRecord) -> None:
        """Budget refused the hold: shed per the proxy's overflow policy."""
        proxy = self.proxy
        if proxy.on_hold_overflow is not None:
            verdict = proxy.on_hold_overflow(flow)
        else:
            verdict = (ForwarderDecision.FORWARD if proxy.hold_budget.fail_open
                       else ForwarderDecision.DROP)
        if verdict is ForwarderDecision.FORWARD:
            self._forward(flow, record)
        else:
            flow.records_discarded += 1
            proxy._m_discarded.inc()

    def _forward(self, flow: ProxiedFlow, record: HeldRecord) -> None:
        datagram = Packet(
            src=flow.client,
            dst=flow.server,
            protocol=Protocol.UDP,
            payload_len=record.payload_len,
            tls_type=record.tls_type,
            tls_record_seq=record.tls_record_seq,
            meta=dict(record.meta),
        )
        self.proxy.send(datagram)
        flow.records_forwarded += 1
        self.proxy._m_forwarded.inc()

    def release_held(self, flow: ProxiedFlow) -> int:
        """Forward all held datagrams in order."""
        if flow.protocol is not Protocol.UDP:
            raise NetworkError("release_held on a non-UDP flow; use the proxy")
        held, flow.held = flow.held, []
        self.proxy.hold_budget.credit(held)
        for record in held:
            self._forward(flow, record)
        return len(held)

    def discard_held(self, flow: ProxiedFlow) -> int:
        """Drop all held datagrams."""
        held, flow.held = flow.held, []
        self.proxy.hold_budget.credit(held)
        flow.records_discarded += len(held)
        self.proxy._m_discarded.inc(len(held))
        return len(held)

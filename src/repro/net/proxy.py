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

Google Home Mini may use QUIC over UDP.  Its datagrams go through the
same hold queue: the proxy owns every flow's queue, whatever the
transport, and the :class:`UdpForwarder` only claims the speaker's QUIC
datagrams and closes their flows once they fall silent.  The transport
shows only where a record leaves the guard
(:meth:`TransparentProxy._send_upstream`) and in the TCP fast path for
an established upstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Network, TapHost
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.net.tcp import TcpConnection, TcpStack, TcpState
from repro.obs.tracer import NULL_SPAN, Observability

_SYN = TcpFlags.SYN.value
_ACK = TcpFlags.ACK.value
# Enum members read per record (see repro.net.tcp._ACK_FLAG).
_TCP = Protocol.TCP
_UDP = Protocol.UDP
_ESTABLISHED = TcpState.ESTABLISHED

# The port both speakers' cloud sessions use, over TCP (TLS) and UDP
# (QUIC).  TCP to other ports is bridged untouched; datagrams (e.g.
# DNS/53 UDP) are reported to snoopers, then forwarded or bridged.
PROXIED_PORT = 443
# Seconds without a datagram in either direction after which a QUIC
# flow ends, silently, as QUIC's idle timeout closes a connection
# (RFC 9000 section 10.1).
QUIC_IDLE_TIMEOUT = 30.0


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
_HOLD = ForwarderDecision.HOLD

# Flow ids are allocated per-proxy (see TransparentProxy._open_flow), one
# counter for both transports, so repeated in-process runs match.


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

    def __init__(self, limit_bytes: int = 0,
                 obs: Optional[Observability] = None) -> None:
        self.limit_bytes = limit_bytes
        self.held_bytes = 0
        self.held_records = 0
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
    endpoint the speaker believed it was talking to.  ``policy_state``
    is the record policy's; finishing the flow resets it to None.
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
    policy_state: object = None
    last_datagram_at: float = 0.0  # UDP: the last one either way


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
SnoopObserver = Callable[[Packet], None]
# Budget-overflow hook: resolves the flow's pending window by policy and
# returns what to do with the record that could not be held.  A proxy
# with no hook drops that record.
OverflowPolicy = Callable[[ProxiedFlow], ForwarderDecision]
# ``TransparentProxy.open_flows`` key: (protocol, client, server).  The
# protocol keeps a QUIC port from ever naming a TCP flow.
FlowKey = Tuple[Protocol, Endpoint, Endpoint]


class TransparentProxy(TapHost):
    """The guard laptop's inline packet plane.

    ``name`` and ``ip`` are the guard laptop's host identity on the LAN.
    It terminates TCP to :data:`PROXIED_PORT` and keeps every flow it
    has not finished, of either transport, in ``open_flows``.
    """

    def __init__(
        self,
        name: str,
        ip: IPv4Address,
        obs: Optional[Observability] = None,
        hold_budget: Optional[HoldBudget] = None,
    ) -> None:
        super().__init__(name, ip)
        self.stack = TcpStack(self)
        obs = obs or Observability()
        self.tracer = obs.tracer
        metrics = obs.metrics.scope("proxy")
        self._m_flows = metrics.counter("flows_opened")
        self._m_forwarded = metrics.counter("records_forwarded")
        self._m_held = metrics.counter("records_held")
        self._m_discarded = metrics.counter("records_discarded")
        self.hold_budget = hold_budget or HoldBudget(obs=obs)
        self.on_hold_overflow: Optional[OverflowPolicy] = None
        self.record_policy: Optional[RecordPolicy] = None
        self._record_shims: List[RecordShim] = []
        self._snoopers: List[SnoopObserver] = []
        self.open_flows: Dict[FlowKey, ProxiedFlow] = {}
        self.udp_forwarder: Optional["UdpForwarder"] = None
        self._last_flow_id = 0
        self.stack.listen(PROXIED_PORT, self._accept_downstream, transparent=True)

    def _open_flow(self, protocol: Protocol, client: Endpoint,
                   server: Endpoint) -> ProxiedFlow:
        """Number a new flow, enter it in ``open_flows`` and begin its span."""
        self._last_flow_id += 1
        flow = ProxiedFlow(flow_id=self._last_flow_id, protocol=protocol,
                           client=client, server=server)
        self.open_flows[(protocol, client, server)] = flow
        self._m_flows.inc()
        flow.span = self.tracer.begin(
            "proxy.flow", flow_id=flow.flow_id, protocol=protocol.value,
            client=str(client), server=str(server),
        )
        return flow

    # -- installation ---------------------------------------------------
    def install(self, network: Network, covered_ip: IPv4Address) -> None:
        """Attach to ``network`` and interpose on ``covered_ip``."""
        if self.network is None:
            network.attach(self)
        network.install_tap(covered_ip, self)

    def add_snooper(self, snooper: SnoopObserver) -> None:
        """Observe every tapped datagram (the guard snoops DNS answers
        this way); TCP segments are not shown."""
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

    def forwards_idle(self, flow: ProxiedFlow) -> bool:
        """Whether a heartbeat record on ``flow`` would go straight
        upstream, changing nothing but the forward counters: no shim,
        nothing held or awaiting the upstream, and a record policy (if
        any) whose owner's ``forwards_heartbeats(flow)`` says so."""
        if self._record_shims or flow.held or flow.awaiting_upstream or flow.closed:
            return False
        policy = self.record_policy
        if policy is None:
            return True
        forwards = getattr(getattr(policy, "__self__", None), "forwards_heartbeats", None)
        return forwards is not None and forwards(flow)

    def _count_forwarded(self, flow: ProxiedFlow, records: int) -> None:
        """Count ``records`` records forwarded on ``flow``'s fast path."""
        flow.records_forwarded += records
        self._m_forwarded.inc(records)

    # -- tap entry point --------------------------------------------------
    def intercept(self, packet: Packet) -> None:
        """Tap entry point: demux to the stack, forwarder, or bridge."""
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
                and packet.dst.port == PROXIED_PORT
            ):
                self.stack.receive(packet)
                return
            self.bridge(packet)
            return
        for snooper in self._snoopers:
            snooper(packet)
        if self.udp_forwarder is not None and self.udp_forwarder.claims(packet):
            self.udp_forwarder.handle(packet)
            return
        self.bridge(packet)

    # -- downstream (speaker-side) ---------------------------------------
    def _accept_downstream(self, downstream: TcpConnection) -> None:
        flow = self._open_flow(_TCP, downstream.remote, downstream.local)
        flow.downstream = downstream
        # ``functools.partial`` over bound methods rather than lambdas:
        # these callbacks live on connections that outlast this call, and
        # the pickled world snapshots of repro.experiments.pool must
        # restore them.  Pickle rebinds a partial's bound method and args
        # into the restored object graph; it rejects a lambda outright.
        downstream.on_record = partial(self._on_client_record, flow)
        downstream.on_close = partial(self._on_downstream_close, flow)
        downstream.on_established = partial(self._open_upstream, flow)

    def _open_upstream(self, flow: ProxiedFlow, _conn: Optional[TcpConnection] = None) -> None:
        upstream = self.stack.connect(flow.server, local_ip=flow.client.ip)
        flow.upstream = upstream
        upstream.on_record = partial(self._on_server_record, flow)
        upstream.on_close = partial(self._on_upstream_close, flow)
        upstream.on_established = partial(self._flush_awaiting, flow)

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
        self._admit(flow, packet, decision)

    # -- the hold queue (both transports) ----------------------------------
    def _admit(self, flow: ProxiedFlow, packet: Packet,
               decision: ForwarderDecision) -> None:
        """Drop one client record or datagram, park it under the hold
        budget, shed it through the overflow hook, or send it on.

        When the budget refuses a hold, the hook first resolves the
        flow's pending window (so its bytes come back to the pool), then
        names the unheld record's fate: forwarded past the guard
        (fail-open) or dropped (fail-closed).  With no hook it is dropped.
        """
        if decision is _HOLD:
            if self.hold_budget.try_charge(packet.payload_len):
                flow.held.append(self._record(packet))
                self._m_held.inc()
                return
            overflow = self.on_hold_overflow
            decision = overflow(flow) if overflow is not None else ForwarderDecision.DROP
        if decision is _FORWARD:
            self._send_upstream(flow, self._record(packet))
        else:
            flow.records_discarded += 1
            self._m_discarded.inc()

    def _record(self, packet: Packet) -> HeldRecord:
        return HeldRecord(
            payload_len=packet.payload_len,
            tls_type=packet.tls_type,
            tls_record_seq=packet.tls_record_seq,
            meta=dict(packet.meta),
            held_at=self.network.sim.now,
        )

    def _send_upstream(self, flow: ProxiedFlow, record: HeldRecord) -> None:
        """Send one record on: over the spoofed upstream connection
        (queued until it is established) or as a datagram."""
        if flow.protocol is _TCP:
            upstream = flow.upstream
            if upstream is None or not upstream.is_established:
                flow.awaiting_upstream.append(record)
                return
            upstream.send_record(record.payload_len, record.tls_type,
                                 record.tls_record_seq, record.meta)
        else:
            flow.last_datagram_at = self.network.sim.now
            self.send(Packet(
                src=flow.client,
                dst=flow.server,
                protocol=Protocol.UDP,
                payload_len=record.payload_len,
                tls_type=record.tls_type,
                tls_record_seq=record.tls_record_seq,
                meta=dict(record.meta),
            ))
        flow.records_forwarded += 1
        self._m_forwarded.inc()

    def _flush_awaiting(self, flow: ProxiedFlow,
                        _conn: Optional[TcpConnection] = None) -> None:
        pending, flow.awaiting_upstream = flow.awaiting_upstream, []
        for record in pending:
            self._send_upstream(flow, record)

    def release_held(self, flow: ProxiedFlow) -> int:
        """Forward all held records upstream in order; returns the count."""
        held, flow.held = flow.held, []
        self.hold_budget.credit(held)
        for record in held:
            self._send_upstream(flow, record)
        return len(held)

    def discard_held(self, flow: ProxiedFlow) -> int:
        """Drop all held records; returns the count.

        Subsequent client records continue to be forwarded; on TCP the
        cloud will observe the TLS record-sequence gap and close the
        session.
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
        """Close ``flow`` for good: it leaves ``open_flows`` and drops
        its policy state.  A record that still reaches the policy on a
        closed flow (a TCP downstream in FIN_WAIT) starts fresh state,
        which goes with the flow object."""
        if flow.closed:
            return
        flow.closed = True
        flow.close_reason = reason
        flow.policy_state = None
        del self.open_flows[(flow.protocol, flow.client, flow.server)]
        flow.span.finish(reason=reason, forwarded=flow.records_forwarded,
                         discarded=flow.records_discarded)


class UdpForwarder:
    """Claims the speaker's UDP (QUIC) datagrams for the proxy.

    Client→server datagrams pass through the record policy into the
    proxy's hold queue; server→client datagrams are always forwarded
    immediately.  A flow with no datagram either way (a released one
    included) for :data:`QUIC_IDLE_TIMEOUT` seconds and nothing held
    finishes with reason ``"idle"``; the close sends and counts nothing.
    """

    def __init__(self, proxy: TransparentProxy, covered_ip: IPv4Address) -> None:
        self.proxy = proxy
        self.covered_ips = {covered_ip}
        proxy.udp_forwarder = self

    def add_covered(self, ip: IPv4Address) -> None:
        """Also forward for another speaker IP (multi-speaker homes)."""
        self.covered_ips.add(ip)

    def claims(self, packet: Packet) -> bool:
        """Whether this datagram belongs to the forwarder."""
        if packet.protocol is not _UDP:
            return False
        if packet.src.ip in self.covered_ips and packet.dst.port == PROXIED_PORT:
            return True
        return packet.dst.ip in self.covered_ips and packet.src.port == PROXIED_PORT

    def handle(self, packet: Packet) -> None:
        """Process one claimed datagram."""
        proxy = self.proxy
        sim = proxy.network.sim
        if packet.src.ip in self.covered_ips:
            flow = proxy.open_flows.get((_UDP, packet.src, packet.dst))
            if flow is None:
                flow = proxy._open_flow(_UDP, packet.src, packet.dst)
                sim.post(QUIC_IDLE_TIMEOUT, self._close_if_idle, flow)
            flow.last_datagram_at = sim.now
            proxy._admit(flow, packet, proxy._policy_decision(flow, packet))
            return
        flow = proxy.open_flows.get((_UDP, packet.dst, packet.src))
        if flow is not None:
            flow.last_datagram_at = sim.now
        proxy.bridge(packet)

    def _close_if_idle(self, flow: ProxiedFlow) -> None:
        """Finish ``flow`` once it has been silent for the timeout with
        nothing held; otherwise check again when it next could close."""
        sim = self.proxy.network.sim
        remaining = QUIC_IDLE_TIMEOUT - (sim.now - flow.last_datagram_at)
        if remaining > 1e-6:
            sim.post(remaining, self._close_if_idle, flow)
        elif flow.held:
            # Held records keep a silent flow open: look again later.
            sim.post(QUIC_IDLE_TIMEOUT, self._close_if_idle, flow)
        else:
            self.proxy._finish_flow(flow, "idle")

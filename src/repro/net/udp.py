"""UDP datagram flows.

Google Home Mini talks QUIC (UDP) to its cloud when network conditions
allow, and falls back to TCP otherwise (Section IV-B).  The guard's
Traffic Handler therefore runs a UDP forwarder next to the TCP proxy.
QUIC itself is not re-implemented; a :class:`UdpFlow` models the parts
that matter to the guard — datagrams with observable lengths, an idle
timeout, and loss-triggered client retry/failure.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import NetworkError
from repro.net.addresses import Endpoint
from repro.net.link import Host
from repro.net.packet import Packet, Protocol, TlsRecordType

# Seconds without a datagram in either direction after which a QUIC
# flow ends, silently, as QUIC's idle timeout closes a connection
# (RFC 9000 section 10.1).
QUIC_IDLE_TIMEOUT = 30.0


class UdpFlow:
    """A bidirectional UDP conversation from one host's point of view.

    The flow registers its local port on the host; inbound datagrams
    are handed to ``on_datagram(flow, packet)`` until :meth:`close`
    frees the port.
    """

    def __init__(
        self,
        host: Host,
        local: Endpoint,
        remote: Endpoint,
        on_datagram: Optional[Callable[["UdpFlow", Packet], None]] = None,
    ) -> None:
        self.host = host
        self.local = local
        self.remote = remote
        self.on_datagram = on_datagram
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.last_activity = 0.0  # sim time of the last datagram either way
        host.register_udp_handler(local.port, self._receive)

    def send(
        self,
        payload_len: int,
        tls_type: TlsRecordType = TlsRecordType.APPLICATION_DATA,
        meta: Optional[dict] = None,
    ) -> Packet:
        """Send one datagram to the remote endpoint."""
        if payload_len <= 0:
            raise NetworkError(f"datagram payload must be positive, got {payload_len!r}")
        packet = Packet(
            src=self.local,
            dst=self.remote,
            protocol=Protocol.UDP,
            payload_len=payload_len,
            tls_type=tls_type,
        )
        if meta:
            packet.meta.update(meta)
        self.datagrams_sent += 1
        self.host.send(packet)
        self.last_activity = self.host.network.sim.now
        return packet

    def close(self) -> None:
        """Free the local port: later datagrams to it are ignored."""
        self.host.unregister_udp_handler(self.local.port)

    def close_when_idle(self) -> None:
        """Close once :data:`QUIC_IDLE_TIMEOUT` seconds pass with no
        datagram either way, counting from now: QUIC's silent idle
        close, which sends nothing."""
        sim = self.host.network.sim
        self.last_activity = sim.now
        sim.post(QUIC_IDLE_TIMEOUT, self._close_if_idle)

    def _close_if_idle(self) -> None:
        sim = self.host.network.sim
        remaining = QUIC_IDLE_TIMEOUT - (sim.now - self.last_activity)
        if remaining > 1e-6:
            sim.post(remaining, self._close_if_idle)
        else:
            self.close()

    def _receive(self, packet: Packet) -> None:
        if packet.src != self.remote or packet.dst != self.local:
            return
        self.datagrams_received += 1
        self.last_activity = self.host.network.sim.now
        if self.on_datagram:
            self.on_datagram(self, packet)

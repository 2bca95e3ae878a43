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


class UdpFlow:
    """A bidirectional UDP conversation from one host's point of view.

    The owner registers the local port on its host; inbound datagrams
    are handed to ``on_datagram(flow, packet)``.
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
        return packet

    def _receive(self, packet: Packet) -> None:
        if packet.src != self.remote or packet.dst != self.local:
            return
        self.datagrams_received += 1
        if self.on_datagram:
            self.on_datagram(self, packet)

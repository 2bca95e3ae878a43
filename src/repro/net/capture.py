"""Wireshark-like packet capture.

The paper's authors ran Wireshark on the guard laptop to discover the
traffic structure (Section IV-B); our experiments do the same against
the simulated network.  A capture is an append-only list of immutable
records with simple filtering helpers, and can render itself in the
style of the paper's Figure 4 packet listings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.net.addresses import IPv4Address
from repro.net.link import Network
from repro.net.packet import Packet, Protocol, TcpFlags, TlsRecordType


@dataclass(frozen=True)
class CaptureRecord:
    """One captured packet, frozen at observation time."""

    number: int
    time: float
    src: str
    dst: str
    src_ip: IPv4Address
    dst_ip: IPv4Address
    protocol: Protocol
    payload_len: int
    flags: TcpFlags
    tls_type: TlsRecordType
    tls_record_seq: object
    retransmission: bool

    @property
    def is_application_data(self) -> bool:
        """Whether the packet carried a TLS application-data record."""
        return self.tls_type is TlsRecordType.APPLICATION_DATA and self.payload_len > 0

    def line(self) -> str:
        """Render like a Wireshark summary row."""
        info = self.tls_type.value if self.tls_type is not TlsRecordType.NONE else "tcp"
        if TcpFlags.SYN in self.flags:
            info = "SYN" + (",ACK" if TcpFlags.ACK in self.flags else "")
        elif TcpFlags.RST in self.flags:
            info = "RST"
        elif TcpFlags.FIN in self.flags:
            info = "FIN"
        elif TcpFlags.KEEPALIVE in self.flags:
            info = "keep-alive"
        retx = " [retransmission]" if self.retransmission else ""
        return (
            f"{self.number:>6}  {self.time:>9.4f}  {self.src:<21} -> {self.dst:<21}"
            f"  {self.protocol.value:<3}  len={self.payload_len:<5}  {info}{retx}"
        )


class PacketCapture:
    """Records every packet the network delivers.

    Attach with :meth:`attach`; filter with the ``between`` / ``from_ip``
    helpers.  Live consumers (the guard) should not use a capture — they
    get packets from the tap — but experiments use captures to build the
    figures.
    """

    def __init__(self) -> None:
        self.records: List[CaptureRecord] = []
        self._network: Optional[Network] = None
        self._filter: Optional[Callable[[Packet], bool]] = None

    def attach(self, network: Network, keep: Optional[Callable[[Packet], bool]] = None) -> "PacketCapture":
        """Start capturing on ``network``; optional ``keep`` predicate."""
        self._network = network
        self._filter = keep
        network.add_observer(self._observe)
        return self

    def _observe(self, packet: Packet, scope: str) -> None:
        if self._filter is not None and not self._filter(packet):
            return
        self.records.append(
            CaptureRecord(
                number=packet.number,
                time=packet.send_time,
                src=str(packet.src),
                dst=str(packet.dst),
                src_ip=packet.src.ip,
                dst_ip=packet.dst.ip,
                protocol=packet.protocol,
                payload_len=packet.payload_len,
                flags=packet.flags,
                tls_type=packet.tls_type,
                tls_record_seq=packet.tls_record_seq,
                retransmission=bool(packet.meta.get("retransmission")),
            )
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- filters --------------------------------------------------------
    def from_ip(self, ip: IPv4Address) -> List[CaptureRecord]:
        """Records sent by ``ip``."""
        return [r for r in self.records if r.src_ip == ip]

    def application_data(self, records: Optional[Iterable[CaptureRecord]] = None) -> List[CaptureRecord]:
        """Only application-data records."""
        source = self.records if records is None else records
        return [r for r in source if r.is_application_data]

    def between(self, start: float, end: float) -> List[CaptureRecord]:
        """Records captured inside [start, end]."""
        return [r for r in self.records if start <= r.time <= end]

    # -- rendering ------------------------------------------------------
    def render(self, records: Optional[Sequence[CaptureRecord]] = None, limit: int = 40) -> str:
        """Figure-4-style packet listing."""
        rows = list(self.records if records is None else records)[:limit]
        header = f"{'#':>6}  {'time':>9}  {'source':<21}    {'destination':<21}  proto"
        return "\n".join([header] + [r.line() for r in rows])

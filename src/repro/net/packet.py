"""Packet metadata.

The reproduction models packets at exactly the granularity VoiceGuard
observes in the real system: timestamps, endpoints, transport protocol,
TCP flags, *payload length in bytes*, and the (cleartext) TLS record
type from the record header.  Actual payload bytes are never modelled —
the traffic between speaker and cloud is encrypted and the paper's
recognizer works on lengths alone.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional

from repro.errors import NetworkError
from repro.net.addresses import Endpoint


class Protocol(enum.Enum):
    """Transport protocol of a packet."""

    TCP = "tcp"
    UDP = "udp"


class TcpFlags(enum.Flag):
    """Subset of TCP flags the simulation distinguishes."""

    NONE = 0
    SYN = enum.auto()
    ACK = enum.auto()
    FIN = enum.auto()
    RST = enum.auto()
    PSH = enum.auto()
    KEEPALIVE = enum.auto()  # modelled as its own flag for observability


class TlsRecordType(enum.Enum):
    """TLS record content type, readable in the unencrypted record header.

    The paper's packet-level signatures only count records labelled
    ``APPLICATION_DATA`` ("we only consider lengths of a subset of
    packets that are labeled as 'Application Data' in the TLS record
    header", Section IV-B).
    """

    NONE = "none"  # no TLS record in this segment (pure ACK, keepalive...)
    HANDSHAKE = "handshake"
    CHANGE_CIPHER_SPEC = "change_cipher_spec"
    APPLICATION_DATA = "application_data"
    ALERT = "alert"


class Packet:
    """One simulated packet.

    ``payload_len`` is the application payload in bytes (what Wireshark
    would show as the TLS record length for application-data segments).
    ``tls_record_seq`` carries the TLS record sequence number for
    application-data records so the receiving endpoint can detect the
    desynchronization caused by dropped records.
    ``number`` is ``None`` until the packet is first sent: the
    :class:`~repro.net.link.Network` then stamps it with the next number
    of its own counter (display/debug identity only), and a re-send, such
    as a tap bridging the packet, keeps it.

    A plain ``__slots__`` class rather than a dataclass: tens of
    thousands of packets are built per scenario, and skipping the
    per-instance ``__dict__`` plus the dataclass plumbing measurably
    trims the per-packet cost.  Equality still compares all fields and
    packets stay unhashable, matching the previous dataclass semantics.
    """

    __slots__ = (
        "src",
        "dst",
        "protocol",
        "payload_len",
        "flags",
        "seq",
        "ack",
        "tls_type",
        "tls_record_seq",
        "meta",
        "number",
        "send_time",
    )

    def __init__(
        self,
        src: Endpoint,
        dst: Endpoint,
        protocol: Protocol,
        payload_len: int = 0,
        flags: TcpFlags = TcpFlags.NONE,
        seq: int = 0,
        ack: int = 0,
        tls_type: TlsRecordType = TlsRecordType.NONE,
        tls_record_seq: Optional[int] = None,
        meta: Optional[Dict[str, Any]] = None,
        send_time: float = 0.0,
    ) -> None:
        if payload_len < 0:
            raise NetworkError(f"negative payload length {payload_len!r}")
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload_len = payload_len
        self.flags = flags
        self.seq = seq
        self.ack = ack
        self.tls_type = tls_type
        self.tls_record_seq = tls_record_seq
        self.meta = {} if meta is None else meta
        self.number: Optional[int] = None
        self.send_time = send_time

    def _astuple(self) -> tuple:
        return (
            self.src,
            self.dst,
            self.protocol,
            self.payload_len,
            self.flags,
            self.seq,
            self.ack,
            self.tls_type,
            self.tls_record_seq,
            self.meta,
            self.number,
            self.send_time,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Packet:
            return self._astuple() == other._astuple()
        return NotImplemented

    # Same as the previous ``@dataclass`` (eq=True): defining __eq__
    # leaves packets unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(src={self.src!r}, dst={self.dst!r}, protocol={self.protocol!r}, "
            f"payload_len={self.payload_len!r}, flags={self.flags!r}, seq={self.seq!r}, "
            f"ack={self.ack!r}, tls_type={self.tls_type!r}, "
            f"tls_record_seq={self.tls_record_seq!r}, meta={self.meta!r}, "
            f"number={self.number!r}, send_time={self.send_time!r})"
        )

    @property
    def is_application_data(self) -> bool:
        """True when the packet carries a TLS application-data record."""
        return self.tls_type is TlsRecordType.APPLICATION_DATA and self.payload_len > 0

    def brief(self) -> str:
        """Compact human-readable one-liner (used in figure renderings)."""
        flag_names = [flag.name for flag in TcpFlags if flag is not TcpFlags.NONE and flag in self.flags]
        flag_text = ",".join(flag_names) if flag_names else "-"
        return (
            f"#{self.number} t={self.send_time:.3f} {self.src} -> {self.dst} "
            f"{self.protocol.value} len={self.payload_len} [{flag_text}] {self.tls_type.value}"
        )

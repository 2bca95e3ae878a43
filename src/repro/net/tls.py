"""TLS record-layer bookkeeping.

Commercial smart-speaker traffic is end-to-end encrypted and mutually
authenticated, which the paper leans on twice:

* the *attacker* cannot forge or modify packets to evade the guard, and
* the *guard itself* cannot splice content: if it drops held records and
  later lets the stream continue, the receiver sees a gap in the record
  sequence and terminates the session (Figure 4, case III).

:class:`TlsSession` implements exactly that receiver-side check.  Both
cloud-server models feed received application-data records through one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import NetworkError


@dataclass
class TlsViolation:
    """Details of a record-sequence desynchronization."""

    expected_seq: int
    received_seq: int
    time: float

    def __str__(self) -> str:
        return (
            f"TLS record sequence mismatch at t={self.time:.3f}: "
            f"expected {self.expected_seq}, got {self.received_seq}"
        )


class TlsSession:
    """Sender/receiver record-sequence state for one TLS connection.

    The sender side stamps outgoing application-data records with
    monotonically increasing sequence numbers via :meth:`next_send_seq`.
    The receiver side verifies continuity via :meth:`accept_record`,
    which returns a :class:`TlsViolation` on a gap (the caller then
    closes the connection, as a real TLS stack would after a failed
    record MAC).
    """

    def __init__(self) -> None:
        self._send_seq = 0
        self._recv_expected = 0
        self.violation: Optional[TlsViolation] = None

    @property
    def records_received(self) -> int:
        """In-sequence records accepted so far."""
        return self._recv_expected

    @property
    def records_sent(self) -> int:
        """Record sequence numbers allocated so far."""
        return self._send_seq

    def next_send_seq(self) -> int:
        """Allocate the sequence number for the next outgoing record."""
        seq = self._send_seq
        self._send_seq += 1
        return seq

    def skip(self, sent: int, received: int) -> None:
        """Account ``sent`` records sent and ``received`` accepted in
        sequence, as that many :meth:`next_send_seq` and in-sequence
        :meth:`accept_record` calls would."""
        self._send_seq += sent
        self._recv_expected += received

    def accept_record(self, record_seq: Optional[int], now: float) -> Optional[TlsViolation]:
        """Validate an incoming application-data record.

        Returns ``None`` when the record is in sequence, otherwise a
        :class:`TlsViolation`.  After a violation the session is dead
        and further calls raise.
        """
        if self.violation is not None:
            raise NetworkError("record received on a desynchronized TLS session")
        if record_seq is None:
            raise NetworkError("application-data record without a record sequence number")
        if record_seq != self._recv_expected:
            self.violation = TlsViolation(
                expected_seq=self._recv_expected, received_seq=record_seq, time=now
            )
            return self.violation
        self._recv_expected += 1
        return None

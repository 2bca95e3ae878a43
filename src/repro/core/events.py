"""Guard event log.

Every recognition window produces one :class:`CommandEvent` capturing
what the guard saw, decided, and did.  The experiments score these
events against the speakers' ground-truth interaction records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.decision import Verdict
from repro.core.resilience import ResilienceEvent, count_events


class TrafficClass(enum.Enum):
    """Outcome of classifying one traffic spike."""

    COMMAND = "command"
    RESPONSE = "response"
    UNKNOWN = "unknown"


@dataclass
class CommandEvent:
    """One recognized spike and everything the guard did about it."""

    window_id: int
    flow_id: int
    speaker_ip: str
    protocol: str
    opened_at: float
    classification: Optional[TrafficClass] = None
    classified_at: Optional[float] = None
    classify_packet_count: int = 0
    verdict: Optional[Verdict] = None
    verdict_at: Optional[float] = None
    released_at: Optional[float] = None
    discarded_at: Optional[float] = None
    held_records: int = 0
    rssi_reports: List[object] = field(default_factory=list)

    @property
    def hold_duration(self) -> Optional[float]:
        """How long records were parked before release/discard."""
        end = self.released_at if self.released_at is not None else self.discarded_at
        if end is None:
            return None
        return end - self.opened_at

    @property
    def decision_latency(self) -> Optional[float]:
        """Window open -> verdict (the paper's Figure 7 quantity)."""
        if self.verdict_at is None:
            return None
        return self.verdict_at - self.opened_at


class GuardLog:
    """Append-only log of :class:`CommandEvent` with query helpers."""

    def __init__(self) -> None:
        self.events: List[CommandEvent] = []
        self.resilience: List[ResilienceEvent] = []

    def add(self, event: CommandEvent) -> CommandEvent:
        """Append an event and return it."""
        self.events.append(event)
        return event

    def record_resilience(self, event: ResilienceEvent) -> ResilienceEvent:
        """Append one typed resilience event (retry/offline/degraded)."""
        self.resilience.append(event)
        return event

    def resilience_counts(self) -> dict:
        """Per-type counts of the resilience trail."""
        return count_events(self.resilience)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def event_stream(self) -> List[tuple]:
        """The command-event stream as comparable tuples, in log order.

        This is the equivalence oracle: every field that decides a
        detection outcome (timestamps, classifications, verdicts, packet
        counts, held records, RSSI report reprs).  Two runs that must
        behave identically must yield equal streams.
        """
        return [
            (
                e.window_id,
                e.flow_id,
                e.speaker_ip,
                e.protocol,
                e.opened_at,
                e.classification.value if e.classification else None,
                e.classified_at,
                e.classify_packet_count,
                e.verdict.value if e.verdict else None,
                e.verdict_at,
                e.released_at,
                e.discarded_at,
                e.held_records,
                tuple(repr(report) for report in e.rssi_reports),
            )
            for e in self.events
        ]

    def commands(self) -> List[CommandEvent]:
        """Events classified as commands."""
        return [e for e in self.events if e.classification is TrafficClass.COMMAND]

    def with_verdict(self, verdict: Verdict) -> List[CommandEvent]:
        """Events carrying the given verdict."""
        return [e for e in self.events if e.verdict is verdict]

    def between(self, start: float, end: float) -> List[CommandEvent]:
        """Events opened inside [start, end]."""
        return [e for e in self.events if start <= e.opened_at <= end]

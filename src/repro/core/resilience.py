"""Typed resilience events and the last-known-proximity cache.

The resilient decision path (retries, offline re-queries, degraded
grants) emits one :class:`ResilienceEvent` per action it takes, so the
experiments can report *why* availability held up — or didn't — under
injected faults.  This module sits below :mod:`repro.core.decision`
and :mod:`repro.core.events` so both can import it without a cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


class ResilienceEventType(enum.Enum):
    """What the resilient decision path just did."""

    PUSH_RETRY = "push_retry"  # re-pushed to a silent device (backoff timer)
    DEVICE_OFFLINE = "device_offline"  # messaging cloud NACKed: device unreachable
    OFFLINE_REQUERY = "offline_requery"  # re-queried the next-best device instead
    DECISION_TIMEOUT = "decision_timeout"  # deadline passed with no satisfying report
    DEGRADED_GRANT = "degraded_grant"  # cache proved recent proximity: released
    DEGRADED_MISS = "degraded_miss"  # cache consulted but stale/empty: fell through


@dataclass(frozen=True)
class ResilienceEvent:
    """One action taken by the resilient decision path."""

    type: ResilienceEventType
    time: float
    window_id: int = -1
    device_name: str = ""
    attempt: int = 0  # 1-based push attempt number where applicable


ResilienceRecorder = Callable[[ResilienceEvent], None]


class ProximityCache:
    """Short-TTL last-known-proximity memory, one entry per device.

    Every RSSI report the guard ever receives — including late ones that
    arrive after their query resolved — refreshes this cache.  In
    degraded mode (nothing answered before the deadline, or every device
    is offline) a *fresh* positive entry can stand in for a live proof,
    trading a bounded staleness window for availability.
    """

    def __init__(self, ttl: float) -> None:
        self.ttl = ttl
        # device -> (report time, proved proximity at that time)
        self._entries: Dict[str, Tuple[float, bool]] = {}

    @property
    def enabled(self) -> bool:
        """A zero TTL disables degraded grants entirely."""
        return self.ttl > 0.0

    def update(self, device_name: str, time: float, satisfied: bool) -> None:
        """Record the freshest proximity evidence for a device."""
        previous = self._entries.get(device_name)
        if previous is None or time >= previous[0]:
            self._entries[device_name] = (time, satisfied)

    def fresh_proof(
        self, now: float, floor_check: Optional[Callable[[str], bool]] = None,
    ) -> Optional[str]:
        """The device with the freshest in-TTL positive entry, if any.

        ``floor_check`` is applied at *grant* time: a device that proved
        proximity recently but has since moved to another floor must not
        vouch for a command (the Section V-B2 veto still applies).
        """
        if not self.enabled:
            return None
        best_name: Optional[str] = None
        best_time = -float("inf")
        for name, (time, satisfied) in self._entries.items():
            if not satisfied or now - time > self.ttl:
                continue
            if floor_check is not None and not floor_check(name):
                continue
            if time > best_time:
                best_name, best_time = name, time
        return best_name

    def entry(self, device_name: str) -> Optional[Tuple[float, bool]]:
        """The raw (time, satisfied) entry for a device, if present."""
        return self._entries.get(device_name)


def count_events(events: List[ResilienceEvent]) -> Dict[str, int]:
    """Per-type counts of a resilience event trail."""
    counts: Dict[str, int] = {}
    for event in events:
        key = event.type.value
        counts[key] = counts.get(key, 0) + 1
    return counts

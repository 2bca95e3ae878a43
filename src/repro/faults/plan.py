"""Deterministic fault plans and the injector that executes them.

VoiceGuard's verdict rides a fragile chain — FCM push, app wake, BLE
scan, LAN report (paper Figure 5, steps 4-7) — and the paper's
"practical" claim only holds if the guard degrades gracefully when
links of that chain fail.  :class:`FaultPlan` describes *what* can fail
(per-channel probabilities and scheduled device-offline windows);
:class:`FaultInjector` is the runtime oracle the substrate consults at
each hazard point.

Determinism: every channel rolls on its own SHA-256-derived stream, so
the same plan seed produces the same fault sequence run after run, and
enabling one channel never perturbs another.  Offline windows are pure
simulated-clock interval checks and consume no randomness at all.
With no plan (``plan=None`` or hooks left unwired) every query answers
"no fault" without touching an RNG, so fault-free runs are bit-for-bit
identical to builds that predate this module.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.sim.random import generator
from repro.sim.simulator import Simulator

ANY_DEVICE = "*"

_PROBABILITY_FIELDS = (
    "push_loss",
    "report_loss",
    "scan_failure",
    "sensor_dropout",
    "trace_dropout",
)


@dataclass(frozen=True)
class OfflineWindow:
    """A scheduled interval during which a device is unreachable.

    ``device`` is a device name, or :data:`ANY_DEVICE` to take every
    registered device down at once (a home-wide outage).
    """

    device: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigError(
                f"offline window for {self.device!r} ends at {self.end!r}, "
                f"not after its start {self.start!r}"
            )

    def covers(self, device: str, time: float) -> bool:
        """Whether ``device`` is offline at simulated ``time``."""
        if self.device not in (ANY_DEVICE, device):
            return False
        return self.start <= time < self.end


@dataclass(frozen=True)
class FaultPlan:
    """Per-channel fault model for one run; picklable and hashable.

    Probabilities are per *operation*: one push, one device-to-guard
    report, one BLE scan window, one stair traversal, one triggered
    trace.  ``push_extra_delay`` is the mean of an exponential delay
    added on top of the normal cloud-path latency (congestion /
    throttling), applied to pushes that survive the loss roll.
    """

    seed: int = 0
    push_loss: float = 0.0
    push_extra_delay: float = 0.0
    report_loss: float = 0.0
    scan_failure: float = 0.0
    sensor_dropout: float = 0.0
    trace_dropout: float = 0.0
    offline_windows: Tuple[OfflineWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {value!r}")
        if self.push_extra_delay < 0:
            raise ConfigError(
                f"push_extra_delay must be >= 0, got {self.push_extra_delay!r}"
            )
        # Accept any iterable of windows, but store a hashable tuple.
        object.__setattr__(self, "offline_windows", tuple(self.offline_windows))


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for post-run accounting."""

    channel: str  # "push_loss" | "device_offline" | "scan_failure" | ...
    time: float
    target: str = ""  # device/sensor name the fault hit


class FaultInjector:
    """Runtime oracle: components ask it whether *this* operation fails.

    Each query channel draws from its own deterministic stream derived
    from ``(plan.seed, channel)``; the injector also keeps per-channel
    counts and a full :class:`FaultEvent` trail so experiments can
    report exactly what was injected.
    """

    def __init__(self, sim: Simulator, plan: Optional[FaultPlan] = None) -> None:
        self.sim = sim
        self.plan = plan
        self.counts: Dict[str, int] = {}
        self.events: List[FaultEvent] = []
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def active(self) -> bool:
        """Whether a plan is loaded (inactive injectors never inject)."""
        return self.plan is not None

    def rearm(self, plan: Optional[FaultPlan]) -> None:
        """Swap the plan in place and reset all per-run fault state.

        Snapshot support (:mod:`repro.experiments.pool`): components
        capture a reference to their environment's injector at
        construction, so a restored world re-arms the *same object* for
        the next home — fresh channel streams (derived from the new
        plan's seed), zeroed counts, and an empty event trail.  With
        ``plan=None`` the injector returns to its never-inject state.
        """
        self.plan = plan
        self.counts = {}
        self.events = []
        self._streams = {}

    # -- channel queries ----------------------------------------------------
    def push_dropped(self, device_name: str) -> bool:
        """Does the cloud silently lose this push?"""
        return self._roll("push_loss", "push_loss", device_name)

    def push_extra_delay(self, device_name: str) -> float:
        """Extra congestion delay added to a surviving push."""
        if self.plan is None or self.plan.push_extra_delay <= 0.0:
            return 0.0
        delay = float(self._stream("push_extra_delay").exponential(
            self.plan.push_extra_delay
        ))
        self._record("push_extra_delay", device_name)
        return delay

    def device_offline(self, device_name: str) -> bool:
        """Is the device unreachable right now?  Pure clock check."""
        if self.plan is None:
            return False
        now = self.sim.now
        if any(w.covers(device_name, now) for w in self.plan.offline_windows):
            self._record("device_offline", device_name)
            return True
        return False

    def scan_failed(self, scanner_name: str) -> bool:
        """Does this BLE scan window close without catching a frame?"""
        return self._roll("scan_failure", "scan_failure", scanner_name)

    def report_dropped(self, device_name: str) -> bool:
        """Is the device's LAN/WAN report to the guard lost?"""
        return self._roll("report_loss", "report_loss", device_name)

    def sensor_missed(self, sensor_name: str) -> bool:
        """Does the stair motion sensor sleep through this traversal?"""
        return self._roll("sensor_dropout", "sensor_dropout", sensor_name)

    def trace_dropped(self, device_name: str) -> bool:
        """Does this device fail to record its triggered floor trace?"""
        return self._roll("trace_dropout", "trace_dropout", device_name)

    # -- accounting ----------------------------------------------------------
    def count(self, channel: str) -> int:
        """Injected faults on one channel so far."""
        return self.counts.get(channel, 0)

    @property
    def total_injected(self) -> int:
        """Total faults injected across all channels."""
        return sum(self.counts.values())

    # -- internals -----------------------------------------------------------
    def _roll(self, field_name: str, channel: str, target: str) -> bool:
        if self.plan is None:
            return False
        probability = getattr(self.plan, field_name)
        if probability <= 0.0:
            return False
        if probability < 1.0 and self._stream(channel).random() >= probability:
            return False
        self._record(channel, target)
        return True

    def _record(self, channel: str, target: str) -> None:
        self.counts[channel] = self.counts.get(channel, 0) + 1
        self.events.append(FaultEvent(channel=channel, time=self.sim.now, target=target))

    def _stream(self, channel: str) -> np.random.Generator:
        stream = self._streams.get(channel)
        if stream is None:
            seed = self.plan.seed if self.plan is not None else 0
            digest = hashlib.sha256(f"{seed}/faults/{channel}".encode("utf-8")).digest()
            stream = self._streams[channel] = generator(int.from_bytes(digest[:8], "little"))
        return stream


def offline_outage(start: float, end: float) -> OfflineWindow:
    """A home-wide outage window (every device unreachable)."""
    return OfflineWindow(device=ANY_DEVICE, start=start, end=end)

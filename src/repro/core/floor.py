"""Floor-level tracking via RSSI trace regression (paper Section V-B2).

In a multi-floor home, the room directly above the speaker can read
above the RSSI threshold (the leak of Figure 8a), so proximity alone
would accept an attack issued while the owner is upstairs.  VoiceGuard
therefore tracks each user's *floor level*: a motion sensor near the
stairs triggers an 8-second, 40-sample RSSI trace on every registered
device; a linear fit's slope and y-intercept classify the movement as
Up, Down, or one of the non-stair routes, and Up/Down update the
device's floor.  A command is vetoed when the proving device is not on
the speaker's floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.regression import LinearFit
from repro.analysis.traces import RssiTrace
from repro.errors import ConfigError
from repro.faults.plan import FaultInjector
from repro.home.devices import MobileDevice
from repro.obs.tracer import NULL_SPAN, Observability
from repro.radio.bluetooth import BluetoothBeacon
from repro.sim.simulator import Simulator

# Routes whose traces change the floor estimate, and how.
FLOOR_DELTAS = {"up": +1, "down": -1}


@dataclass(frozen=True)
class TraceFeatures:
    """The two features the paper's method extracts from a trace."""

    slope: float
    intercept: float

    @staticmethod
    def from_fit(fit: LinearFit) -> "TraceFeatures":
        """Extract (slope, intercept) from a line fit."""
        return TraceFeatures(slope=fit.slope, intercept=fit.intercept)


class TraceClassifier:
    """Slope-gate + nearest-centroid classifier (Figure 10's method).

    Step 1 (the paper's slope categories): traces whose |slope| is
    below the gate are in-room movements (Route 1) — the floor cannot
    have changed.  Step 2: among the steep traces, a nearest-centroid
    match on (slope, y-intercept) — normalized by the training spread —
    separates Up/Down from the confusable Routes 2 and 3.
    """

    #: |slope| below which a trace is an in-room movement.
    SLOPE_GATE = 1.0

    def __init__(self) -> None:
        self._centroids: Dict[str, Tuple[float, float]] = {}
        self._scale: Tuple[float, float] = (1.0, 1.0)
        self.flat_label = "route1"

    @property
    def trained(self) -> bool:
        """Whether centroids have been fitted."""
        return bool(self._centroids)

    def fit(self, training: Dict[str, Sequence[TraceFeatures]]) -> None:
        """Learn centroids from labelled training traces.

        ``training`` maps route labels ("up", "down", "route1",
        "route2", "route3", ...) to collected features.
        """
        if not training:
            raise ConfigError("training data is empty")
        slope_deviations: List[float] = []
        intercept_deviations: List[float] = []
        for label, features in training.items():
            if not features:
                raise ConfigError(f"route {label!r} has no training traces")
            slope_mean = float(np.mean([f.slope for f in features]))
            intercept_mean = float(np.mean([f.intercept for f in features]))
            self._centroids[label] = (slope_mean, intercept_mean)
            if abs(slope_mean) < self.SLOPE_GATE:
                # Flat classes (Route 1, possibly multi-room and thus
                # multi-modal) never reach centroid matching — the gate
                # removes them — so they must not inflate the scale.
                continue
            slope_deviations.extend(f.slope - slope_mean for f in features)
            intercept_deviations.extend(f.intercept - intercept_mean for f in features)
        # Pooled *within-class* spread of the steep classes: scaling by
        # it (rather than the global spread) preserves the between-class
        # margins that separate Down from Route 3 in Figure 10.
        slope_std = float(np.std(slope_deviations)) if slope_deviations else 1.0
        intercept_std = float(np.std(intercept_deviations)) if intercept_deviations else 1.0
        self._scale = (max(slope_std, 1e-6), max(intercept_std, 1e-6))

    def classify(self, features: TraceFeatures) -> str:
        """Label a trace.  Untrained classifiers only apply the gate."""
        if abs(features.slope) < self.SLOPE_GATE:
            return self.flat_label
        if not self._centroids:
            # Gate-only fallback: steep slope means a stair traversal.
            return "up" if features.slope < 0 else "down"
        band = self._slope_band(features.slope)
        candidates = {
            label: centroid
            for label, centroid in self._centroids.items()
            if self._slope_band(centroid[0]) == band
        }
        if not candidates:
            candidates = dict(self._centroids)
        slope_scale, intercept_scale = self._scale
        best_label, best_distance = "", float("inf")
        for label, (c_slope, c_intercept) in sorted(candidates.items()):
            d = (
                ((features.slope - c_slope) / slope_scale) ** 2
                + ((features.intercept - c_intercept) / intercept_scale) ** 2
            )
            if d < best_distance:
                best_label, best_distance = label, d
        return best_label

    def _slope_band(self, slope: float) -> int:
        if slope <= -self.SLOPE_GATE:
            return -1
        if slope >= self.SLOPE_GATE:
            return 1
        return 0


@dataclass
class TraceEvent:
    """One classified trace (kept for Figure 10 style reporting)."""

    device_name: str
    time: float
    features: TraceFeatures
    label: str
    floor_before: int
    floor_after: int


class FloorLevelTracker:
    """Maintains a floor estimate per registered device."""

    def __init__(
        self,
        sim: Simulator,
        beacon: BluetoothBeacon,
        classifier: TraceClassifier,
        speaker_floor: int,
        floor_count: int,
        faults: Optional[FaultInjector] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if floor_count < 1:
            raise ConfigError(f"floor_count must be >= 1, got {floor_count!r}")
        self.floor_count = floor_count
        self.speaker_floor = self.check_floor(speaker_floor, "speaker_floor")
        self.sim = sim
        self.beacon = beacon
        self.classifier = classifier
        self.faults = faults
        self._devices: Dict[str, MobileDevice] = {}
        self._floors: Dict[str, int] = {}
        self._recording: Dict[str, bool] = {}
        self.trace_events: List[TraceEvent] = []
        obs = obs or Observability()
        self.tracer = obs.tracer
        metrics = obs.metrics.scope("floor")
        self._m_traces = metrics.counter("traces_recorded")
        self._m_dropped = metrics.counter("traces_dropped")
        self._m_transitions = metrics.counter("floor_transitions")
        self._trace_spans: Dict[str, object] = {}

    def check_floor(self, floor: int, what: str = "initial_floor") -> int:
        """``floor`` as an int, if it is one of the home's floors
        (``0 <= floor < floor_count``); else a :class:`ConfigError`."""
        if not 0 <= int(floor) < self.floor_count:
            raise ConfigError(
                f"{what} must be in [0, {self.floor_count}), got {floor!r}")
        return int(floor)

    def track(self, device: MobileDevice, initial_floor: Optional[int] = None) -> None:
        """Start tracking ``device``; default assumption: speaker floor."""
        floor = self.speaker_floor if initial_floor is None else self.check_floor(initial_floor)
        self._devices[device.name] = device
        self._floors[device.name] = floor

    def floor_of(self, device_name: str) -> Optional[int]:
        """Current floor estimate for a device (None if untracked)."""
        return self._floors.get(device_name)

    def floor_ok(self, device_name: str) -> bool:
        """Is the device believed to be on the speaker's floor?

        Unknown devices pass (the tracker only vetoes what it tracks).
        """
        floor = self._floors.get(device_name)
        return floor is None or floor == self.speaker_floor

    # -- motion-sensor hook -----------------------------------------------------
    def on_motion(self, now: float) -> None:
        """Stairway motion: record a trace on every tracked device."""
        for name, device in self._devices.items():
            if self._recording.get(name):
                continue
            if self.faults is not None and self.faults.trace_dropped(name):
                # The app missed its wake window (Doze, BLE radio busy):
                # this device's floor estimate silently goes stale.
                self._m_dropped.inc()
                continue
            self._recording[name] = True
            self._trace_spans[name] = self.tracer.begin("floor.trace", device=name)
            device.record_trace(self.beacon, partial(self._on_trace, name))

    def _on_trace(self, device_name: str, samples: list) -> None:
        self._recording[device_name] = False
        trace = RssiTrace.from_samples(samples)
        features = TraceFeatures.from_fit(trace.fit())
        label = self.classifier.classify(features)
        before = self._floors[device_name]
        delta = FLOOR_DELTAS.get(label, 0)
        after = min(max(before + delta, 0), self.floor_count - 1)
        self._floors[device_name] = after
        self._m_traces.inc()
        if after != before:
            self._m_transitions.inc()
        self._trace_spans.pop(device_name, NULL_SPAN).finish(
            label=label, floor_before=before, floor_after=after)
        self.trace_events.append(TraceEvent(
            device_name=device_name,
            time=self.sim.now,
            features=features,
            label=label,
            floor_before=before,
            floor_after=after,
        ))

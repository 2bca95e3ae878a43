"""Bluetooth beacon and scanner.

Smart speakers keep Bluetooth enabled for audio casting (Section II-A);
the guard exploits this by having the owner's phone/watch *scan* for
the speaker's advertisements and report the RSSI.  A scan is not
instantaneous: BLE advertising intervals mean the scanner needs several
hundred milliseconds to catch enough advertisement frames, which is a
visible component of the paper's Figure 7 query-latency distribution.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from repro.faults.plan import FaultInjector
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel
from repro.sim.random import bounded_lognormal
from repro.sim.simulator import Simulator


class RssiSample(tuple):
    """One reported measurement of a beacon's signal strength.

    An immutable 4-tuple ``(rssi, time, beacon_name, scanner_name)``,
    like :class:`~repro.radio.geometry.Point`: a floor trace builds one
    per 0.2 s tick.  Hash (``hash((rssi, time, beacon_name,
    scanner_name))``) and repr are those of the frozen dataclass it
    replaced.
    """

    __slots__ = ()

    def __new__(cls, rssi: float, time: float, beacon_name: str,
                scanner_name: str) -> "RssiSample":
        return tuple.__new__(cls, (rssi, time, beacon_name, scanner_name))

    rssi = property(itemgetter(0), doc="The reported RSSI.")
    time = property(itemgetter(1), doc="When it was measured (sim seconds).")
    beacon_name = property(itemgetter(2), doc="The measured beacon.")
    scanner_name = property(itemgetter(3), doc="The measuring scanner.")

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return (f"RssiSample(rssi={self[0]!r}, time={self[1]!r}, "
                f"beacon_name={self[2]!r}, scanner_name={self[3]!r})")


class BluetoothBeacon:
    """The speaker side: an advertising Bluetooth radio at a position."""

    def __init__(self, name: str, position: Point) -> None:
        self.name = name
        self.position = position

    def move_to(self, position: Point) -> None:
        """Relocate the beacon."""
        self.position = position


class BluetoothScanner:
    """The phone/watch side: measures a beacon's RSSI.

    ``position_provider`` returns the scanner's current location (the
    carrying person moves); ``body_blocked_provider`` optionally reports
    whether the carrier's body currently shadows the radio path.
    """

    # Scan-time model: BLE scans need to catch advertisement frames.
    SCAN_MEAN = 0.62
    SCAN_SIGMA = 0.50
    SCAN_MIN = 0.25
    SCAN_MAX = 2.8
    # 2.4 GHz coexistence: while the speaker is streaming audio over
    # WiFi, BLE advertisements get squeezed and scans take longer.
    INTERFERENCE_FACTOR = 1.5

    def __init__(
        self,
        name: str,
        model: PropagationModel,
        position_provider: Callable[[], Point],
        rng: np.random.Generator,
        body_blocked_provider: Optional[Callable[[], bool]] = None,
        interference_provider: Optional[Callable[[], bool]] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.name = name
        self.model = model
        self.position_provider = position_provider
        self.body_blocked_provider = body_blocked_provider
        self.interference_provider = interference_provider
        self.faults = faults
        self._rng = rng
        self.scan_count = 0
        self.scans_failed = 0

    def instant_rssi(self, beacon: BluetoothBeacon, time: float) -> RssiSample:
        """A single immediate measurement (the reference for a trace
        sample, where the app samples every 0.2 s)."""
        blocked = bool(self.body_blocked_provider()) if self.body_blocked_provider else False
        rssi = self.model.sample_rssi(
            beacon.position, self.position_provider(), self._rng, body_blocked=blocked
        )
        return tuple.__new__(RssiSample, (rssi, time, beacon.name, self.name))

    def sample_at_mean(self, beacon: BluetoothBeacon, mean: float, time: float) -> RssiSample:
        """:meth:`instant_rssi` for a receiver whose mean RSSI
        (:meth:`PropagationModel.mean_rssi` to the current position) is
        already known: the same draws from the same streams, in the same
        order, and the same sample."""
        blocked = bool(self.body_blocked_provider()) if self.body_blocked_provider else False
        rssi = self.model.noisy_rssi(mean, self._rng, blocked)
        return tuple.__new__(RssiSample, (rssi, time, beacon.name, self.name))

    # A scan window catches several advertisement frames; the reported
    # RSSI is their average, which is much steadier than one frame.
    FRAMES_PER_SCAN = 3

    def scan(
        self,
        sim: Simulator,
        beacon: BluetoothBeacon,
        callback: Callable[[RssiSample], None],
    ) -> float:
        """Start an asynchronous scan; ``callback(sample)`` on completion.

        Returns the scan duration that was drawn (useful for tests).
        The reported RSSI averages the advertisement frames caught
        during the window, measured at scan-completion position.
        """
        duration = bounded_lognormal(
            self._rng, self.SCAN_MEAN, self.SCAN_SIGMA, self.SCAN_MIN, self.SCAN_MAX
        )
        if self.interference_provider is not None and self.interference_provider():
            duration = min(duration * self.INTERFERENCE_FACTOR, self.SCAN_MAX * 1.5)
        self.scan_count += 1
        if self.faults is not None and self.faults.scan_failed(self.name):
            # The window elapses without catching a single advertisement
            # frame (scheduler starvation, 2.4 GHz collision burst): the
            # app has nothing to report, so the callback never fires.
            self.scans_failed += 1
            return duration

        def finish() -> None:
            # All frames land at the same instant, so the position is
            # constant across the window; body occlusion is re-rolled
            # per frame (it consumes the carrier's rng stream exactly
            # as per-frame instant_rssi calls would).  The frame noise
            # comes from one batched draw instead of per-frame scalar
            # draws — same bitstream, same values.
            position = self.position_provider()
            blocked = [
                bool(self.body_blocked_provider()) if self.body_blocked_provider else False
                for _ in range(self.FRAMES_PER_SCAN)
            ]
            frames = self.model.sample_rssi_batch(
                beacon.position, position, self._rng, blocked
            )
            callback(RssiSample(
                rssi=float(sum(frames) / len(frames)),
                time=sim.now,
                beacon_name=beacon.name,
                scanner_name=self.name,
            ))

        sim.post(duration, finish)
        return duration

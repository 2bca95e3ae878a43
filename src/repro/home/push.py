"""FCM-like push notification service.

The Decision Module reaches the owner's devices by pushing an RSSI
measurement request through a cloud messaging service (paper Figure 5,
steps 4-7).  The dominant latency components are the push delivery
itself and the device-side BLE scan; both are right-skewed.  The model
here, combined with the scan model in :mod:`repro.radio.bluetooth`,
reproduces the paper's Figure 7 distribution (Echo Dot average 1.622 s,
78 % of queries under 2 s, rare stragglers just above 3 s).

Fault injection: an active :class:`repro.faults.FaultInjector` can lose
a push before delivery (silently — real FCM gives the sender no signal),
stretch the cloud path, find the target device offline (the cloud *does*
learn this, surfaced through ``on_undeliverable``), or drop the device's
report on its way back to the guard.  Without a plan every hook is a
no-op and the service behaves exactly as it always has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.faults.plan import FaultInjector
from repro.home.devices import MobileDevice
from repro.obs.tracer import Observability
from repro.radio.bluetooth import BluetoothBeacon, RssiSample
from repro.sim.random import bounded_lognormal
from repro.sim.simulator import Simulator

UndeliverableCallback = Callable[[MobileDevice], None]


@dataclass(frozen=True)
class RssiReport:
    """A device's answer to an RSSI query."""

    device_name: str
    sample: RssiSample
    requested_at: float
    reported_at: float

    @property
    def round_trip(self) -> float:
        """Seconds from query to report."""
        return self.reported_at - self.requested_at


class PushService:
    """Delivers measurement requests to devices with cloud-path latency."""

    DELIVERY_MEAN = 0.75
    DELIVERY_SIGMA = 0.62
    DELIVERY_MIN = 0.12
    DELIVERY_MAX = 3.5
    REPORT_LATENCY = 0.06  # device -> guard reply over LAN/WAN

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        faults: Optional[FaultInjector] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.sim = sim
        self._rng = rng
        self.faults = faults
        # Pre-bound instruments: hot-path recording is one attribute add.
        metrics = (obs or Observability()).metrics.scope("push")
        self._m_sent = metrics.counter("sent")
        self._m_lost = metrics.counter("lost")
        self._m_undeliverable = metrics.counter("undeliverable")
        self._m_reports_dropped = metrics.counter("reports_dropped")
        self._m_reports = metrics.counter("reports_delivered")
        self._m_delivery = metrics.histogram("delivery_delay")
        self._m_rtt = metrics.histogram("round_trip")

    def delivery_delay(self) -> float:
        """Draw one push-delivery latency."""
        return bounded_lognormal(
            self._rng, self.DELIVERY_MEAN, self.DELIVERY_SIGMA,
            self.DELIVERY_MIN, self.DELIVERY_MAX,
        )

    def request_rssi(
        self,
        device: MobileDevice,
        beacon: BluetoothBeacon,
        callback: Callable[[RssiReport], None],
        on_undeliverable: Optional[UndeliverableCallback] = None,
    ) -> bool:
        """Push an RSSI request to ``device``; asynchronous reply.

        Timeline: push delivery -> app wake -> BLE scan -> report.
        Returns whether the push actually entered the delivery pipeline;
        the ``push.sent`` counter counts only pushes whose delivery event
        was scheduled, so injected pre-delivery losses never inflate it.
        An offline device surfaces as ``on_undeliverable(device)`` at
        delivery time — the messaging cloud's NACK back to the sender.
        """
        requested_at = self.sim.now
        faults = self.faults
        if faults is not None and faults.push_dropped(device.name):
            # Lost inside the messaging cloud: the sender learns nothing.
            self._m_lost.inc()
            return False
        delay = self.delivery_delay()
        if faults is not None:
            delay += faults.push_extra_delay(device.name)

        def on_sample(sample: RssiSample) -> None:
            if faults is not None and faults.report_dropped(device.name):
                self._m_reports_dropped.inc()
                return

            def deliver_report() -> None:
                self._m_reports.inc()
                self._m_rtt.record(self.sim.now - requested_at)
                callback(
                    RssiReport(
                        device_name=device.name,
                        sample=sample,
                        requested_at=requested_at,
                        reported_at=self.sim.now,
                    )
                )

            self.sim.post(self.REPORT_LATENCY, deliver_report)

        def on_delivered() -> None:
            if faults is not None and faults.device_offline(device.name):
                self._m_undeliverable.inc()
                if on_undeliverable is not None:
                    on_undeliverable(device)
                return
            device.measure_rssi(beacon, on_sample)

        self.sim.post(delay, on_delivered)
        self._m_sent.inc()
        self._m_delivery.record(delay)
        return True

    def request_group(
        self,
        devices: list,
        beacon: BluetoothBeacon,
        callback: Callable[[RssiReport], None],
        on_undeliverable: Optional[UndeliverableCallback] = None,
    ) -> None:
        """Push to a whole device group simultaneously (multi-user mode,
        Section IV-C): each device replies independently."""
        for device in devices:
            self.request_rssi(device, beacon, callback,
                              on_undeliverable=on_undeliverable)

"""Mobile devices and the stair motion sensor.

:class:`Smartphone` and :class:`Smartwatch` run the VoiceGuard
companion app: on a pushed request they scan for the speaker's
Bluetooth beacon and report the RSSI; they can also record the 8-second
40-sample traces the floor-level tracker consumes, and run the
threshold-calibration walk (Section IV-C).
"""

from __future__ import annotations

from heapq import heappush
from itertools import accumulate, repeat
from typing import Callable, List, Optional

import numpy as np

from repro.faults.plan import FaultInjector
from repro.home.person import Person
from repro.radio.bluetooth import BluetoothBeacon, BluetoothScanner, RssiSample
from repro.radio.propagation import PropagationModel
from repro.sim.random import uniform
from repro.sim.simulator import Simulator

TRACE_SAMPLE_PERIOD = 0.2  # the app records RSSI every 0.2 s (Section V-B2)
TRACE_SAMPLE_COUNT = 40  # ... for 8 s, giving 40 values per trace


class MobileDevice:
    """A phone or watch carried by (or near) a person."""

    kind = "device"

    def __init__(
        self,
        name: str,
        carrier: Person,
        sim: Simulator,
        model: PropagationModel,
        rng: np.random.Generator,
        interference_provider: Optional[Callable[[], bool]] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.name = name
        self.carrier = carrier
        self.sim = sim
        self.scanner = BluetoothScanner(
            name=f"{name}-scanner",
            model=model,
            position_provider=carrier.device_position,
            rng=rng,
            body_blocked_provider=carrier.body_blocks_radio,
            interference_provider=interference_provider,
            faults=faults,
        )
        self._app_wake_rng = rng
        self.rssi_requests_served = 0

    # -- guard interactions -------------------------------------------------
    def app_wake_delay(self) -> float:
        """Background app activation latency after a push arrives."""
        return uniform(self._app_wake_rng, 0.08, 0.30)

    def measure_rssi(
        self,
        beacon: BluetoothBeacon,
        callback: Callable[[RssiSample], None],
    ) -> None:
        """Scan for ``beacon`` and deliver one sample asynchronously."""
        self.rssi_requests_served += 1

        def after_wake() -> None:
            self.scanner.scan(self.sim, beacon, callback)

        self.sim.post(self.app_wake_delay(), after_wake)

    def record_trace(
        self,
        beacon: BluetoothBeacon,
        callback: Callable[[List[RssiSample]], None],
    ) -> None:
        """Record :data:`TRACE_SAMPLE_COUNT` RSSI samples,
        :data:`TRACE_SAMPLE_PERIOD` apart.

        Used for floor-level traces: the Decision Module starts a trace
        whenever the stair motion sensor fires.

        The sample times are known now, and so are the receiver
        positions as long as the carrier keeps to its current walk or
        spot: every walking sample's mean RSSI is computed here in one
        vectorized pass (:meth:`PropagationModel.mean_rssi_coords`), and
        the one mean of the point the carrier stands at after (or
        throughout) by the scalar :meth:`PropagationModel.mean_rssi`.  A
        tick of the :class:`_TraceRecorder` then only makes its draws
        (:meth:`PropagationModel.noisy_rssi`) — unless the carrier has
        moved since (``follow``/``teleport``), the beacon has moved, or
        the floor plan has changed, in which case that sample is the
        scalar :meth:`BluetoothScanner.instant_rssi`.  Either way each
        sample is the one ``instant_rssi`` would give.
        """
        scanner, carrier = self.scanner, self.carrier
        model = scanner.model
        # The float chain the ticks land on: now + 0.0, then + the period.
        times = list(accumulate(repeat(TRACE_SAMPLE_PERIOD, TRACE_SAMPLE_COUNT - 1),
                                initial=self.sim.now + 0.0))
        walking, still = carrier.device_path(times)
        means = model.mean_rssi_coords(beacon.position, walking).tolist() if walking.size else []
        if len(means) < len(times):
            means.extend(repeat(model.mean_rssi(beacon.position, still),
                                len(times) - len(means)))
        recorder = _TraceRecorder(self.sim, scanner, carrier, beacon, means, callback)
        self.sim.post(0.0, recorder.tick)

    def instant_rssi(self, beacon: BluetoothBeacon) -> float:
        """Synchronous single measurement (calibration helper)."""
        return self.scanner.instant_rssi(beacon, self.sim.now).rssi


class _TraceRecorder:
    """One floor trace in flight: its precomputed means, what they
    depend on, and the samples so far.

    :meth:`tick` takes one sample and queues the next tick as a
    handle-free heap entry, pushed directly as ``Network.send`` and
    ``DeadlineTimer`` push theirs (see :mod:`repro.sim.events`): it
    takes its sequence number where ``sim.post`` would, after the
    sample's draws, so a trace is the events and draws of a
    ``sim.post`` chain at one frame per sample.
    """

    __slots__ = ("clock", "queue", "scanner", "carrier", "beacon", "means",
                 "callback", "samples", "moves", "tx", "plan", "version", "noisy",
                 "rng", "blocked")

    def __init__(self, sim: Simulator, scanner: BluetoothScanner, carrier: Person,
                 beacon: BluetoothBeacon, means: List[float],
                 callback: Callable[[List[RssiSample]], None]) -> None:
        self.clock = sim._clock
        self.queue = sim._queue
        self.scanner = scanner
        self.carrier = carrier
        self.beacon = beacon
        self.means = means
        self.callback = callback
        self.samples: List[RssiSample] = []
        # The means hold while these do.
        self.moves = carrier.move_count
        self.tx = beacon.position
        self.plan = scanner.model.plan
        self.version = self.plan.version
        self.noisy = scanner.model.noisy_rssi
        self.rng = scanner._rng
        self.blocked = scanner.body_blocked_provider

    def tick(self) -> None:
        samples = self.samples
        now = self.clock._now
        beacon = self.beacon
        if (self.carrier.move_count == self.moves and beacon.position is self.tx
                and self.plan.version == self.version):
            blocked = self.blocked
            rssi = self.noisy(self.means[len(samples)], self.rng,
                              blocked() if blocked is not None else False)
            samples.append(tuple.__new__(RssiSample,
                                         (rssi, now, beacon.name, self.scanner.name)))
        else:
            samples.append(self.scanner.instant_rssi(beacon, now))
        if len(samples) < len(self.means):
            queue = self.queue
            seq = queue._next_seq
            queue._next_seq = seq + 1
            heappush(queue._heap, (now + TRACE_SAMPLE_PERIOD, seq, None, self.tick, ()))
            queue._live += 1
        else:
            self.callback(samples)


class Smartphone(MobileDevice):
    """A phone (Pixel 5 / Pixel 4a in the paper's experiments)."""

    kind = "smartphone"


class Smartwatch(MobileDevice):
    """A wearable (Samsung Galaxy Watch4 in the office testbed)."""

    kind = "smartwatch"


class MotionSensor:
    """A Hue-like PIR sensor covering a region of the floor plan.

    It polls person positions (PIR refresh) and fires its callback when
    anyone is inside the covered region; a refractory period models the
    sensor's cooldown, so one stair traversal yields one event.

    Positions are lazy functions of the active walk and the clock, so a
    poll can only observe something new when somebody is walking (or
    just moved).  The sensor exploits that to *gate* its polling: polls
    inside the refractory window are skipped straight to the first
    grid instant past it (they return unconditionally anyway), and when
    every tracked person stands still outside the region the sensor
    sleeps entirely, re-joining its 0.25 s poll grid when a
    movement listener (:meth:`Person.add_movement_listener`) wakes it.
    The instants at which a poll *observes* anything are exactly those
    of polling every tick, so fire times are bit-identical; only the
    no-op wakeups disappear.
    """

    POLL_PERIOD = 0.25
    REFRACTORY = 6.0

    def __init__(
        self,
        name: str,
        sim: Simulator,
        region: tuple,
        persons: List[Person],
        floor: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.region = region  # (x0, y0, x1, y1)
        self.persons = persons
        self.floor = floor
        self.faults = faults
        self.on_motion: Optional[Callable[[float], None]] = None
        self._last_fired = -1e9
        self.event_count = 0
        self.events_missed = 0
        self._stopped = True
        self._next_poll = 0.0
        self._poll_handle = None
        for person in persons:
            person.add_movement_listener(self._on_person_moved)

    def start(self) -> None:
        """Begin polling for motion."""
        if not self._stopped:
            return
        self._stopped = False
        self._next_poll = self.sim.now + self.POLL_PERIOD
        self._schedule_next()

    def stop(self) -> None:
        """Stop polling."""
        self._stopped = True
        if self._poll_handle is not None:
            self._poll_handle.cancel()
            self._poll_handle = None

    def _covers(self, person: Person) -> bool:
        p = person.position
        x0, y0, x1, y1 = self.region
        return x0 <= p.x <= x1 and y0 <= p.y <= y1

    def _poll(self, now: float) -> None:
        if now - self._last_fired < self.REFRACTORY:
            return
        if any(self._covers(person) for person in self.persons):
            self._last_fired = now  # the traversal is consumed either way
            if self.faults is not None and self.faults.sensor_missed(self.name):
                # PIR dropout: the sensor sleeps through this traversal,
                # so the floor tracker never hears about it.
                self.events_missed += 1
                return
            self.event_count += 1
            if self.on_motion is not None:
                self.on_motion(now)

    # -- gated polling ----------------------------------------------------
    def _poll_event(self) -> None:
        self._poll_handle = None
        if self._stopped:
            return
        now = self._next_poll
        self._poll(now)
        # Advancing by repeated addition keeps the tick grid float-exact
        # (each tick is the previous tick + period).
        self._next_poll = now + self.POLL_PERIOD
        self._schedule_next()

    def _schedule_next(self) -> None:
        # Fast-forward through the refractory window: polls in it
        # return before reading any position, so nothing observable can
        # happen until the first grid instant past it.  The loop repeats
        # _poll's per-tick comparison so the landing tick is float-exact.
        t = self._next_poll
        last_fired = self._last_fired
        period = self.POLL_PERIOD
        refractory = self.REFRACTORY
        while t - last_fired < refractory:
            t += period
        self._next_poll = t
        if not any(p.walking for p in self.persons) and not any(
            self._covers(p) for p in self.persons
        ):
            # Everyone is standing still outside the region: coverage
            # cannot change until someone moves.  Sleep; the movement
            # listeners re-enter the poll grid.
            return
        self._poll_handle = self.sim.schedule_at(t, self._poll_event)

    def _on_person_moved(self) -> None:
        if self._stopped or self._poll_handle is not None:
            return
        # Re-join the poll grid at the next instant strictly after now.
        # (A poll at exactly `now` would have read the pre-move position
        # — known uncovered, or we would not have been asleep — so
        # skipping it changes nothing observable.)
        t = self._next_poll
        now = self.sim.now
        period = self.POLL_PERIOD
        if now - t > 64.0 * period:
            # After a long sleep, stepping tick by tick is O(gap).  The
            # grid lives on multiples of the (dyadic) poll period, where
            # one fused jump is float-exact, so land a few ticks short
            # and let the exact per-tick addition finish the walk.
            t += int((now - t) / period - 2.0) * period
        while t <= now:
            t += period
        self._next_poll = t
        self._schedule_next()

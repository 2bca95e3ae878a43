"""Mobile devices and the stair motion sensor.

:class:`Smartphone` and :class:`Smartwatch` run the VoiceGuard
companion app: on a pushed request they scan for the speaker's
Bluetooth beacon and report the RSSI; they can also record the 8-second
40-sample traces the floor-level tracker consumes, and run the
threshold-calibration walk (Section IV-C).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
        self.carrier._settle_traces()
        return uniform(self._app_wake_rng, 0.08, 0.30)

    def measure_rssi(
        self,
        beacon: BluetoothBeacon,
        callback: Callable[[RssiSample], None],
    ) -> None:
        """Scan for ``beacon`` and deliver one sample asynchronously."""
        self.rssi_requests_served += 1

        def after_wake() -> None:
            self.carrier._settle_traces()  # the scan's duration draws on our stream
            self.scanner.scan(self.sim, beacon, callback)

        self.sim.post(self.app_wake_delay(), after_wake)

    def record_trace(
        self,
        beacon: BluetoothBeacon,
        callback: Callable[[List[RssiSample]], None],
    ) -> None:
        """Record :data:`TRACE_SAMPLE_COUNT` RSSI samples,
        :data:`TRACE_SAMPLE_PERIOD` apart, and pass them to ``callback``
        at the last sample's time.

        Used for floor-level traces: the Decision Module starts a trace
        whenever the stair motion sensor fires.

        The sample times are known now, and so are the receiver
        positions as long as the carrier keeps to its current walk or
        spot: every walking sample's mean RSSI is computed here in one
        vectorized pass (:meth:`PropagationModel.mean_rssi_coords`), and
        the one mean of the point the carrier stands at after (or
        throughout) by the scalar :meth:`PropagationModel.mean_rssi`.
        A move (``follow``/``teleport``), a beacon move or a floor plan
        change recomputes the means of the samples still to come.

        The draws wait: the trace is one kernel event at its last
        sample's time, and its samples are drawn in one pass, one draw
        call per stream, when that event fires or when something else
        is about to draw on the carrier's or the device's stream (see
        :class:`_PendingTrace`).  Each sample is the one a tick calling
        :meth:`BluetoothScanner.instant_rssi` every 0.2 s would give,
        and every stream ends in the state those ticks leave.
        """
        trace = _PendingTrace(self, beacon, callback)
        self.carrier._traces.append(trace)
        beacon.watch(trace)
        self.scanner.model.plan.watch(trace)
        queue = self.sim._queue
        # The end event takes the sequence number the first tick took,
        # and the counter moves on past the 39 the later ticks took, so
        # it reads as it did when every tick was an event.
        seq = queue._next_seq
        queue._next_seq = seq + TRACE_SAMPLE_COUNT
        heappush(queue._heap, (trace.times[-1], seq, None, trace.finish, ()))
        queue._live += 1

    def instant_rssi(self, beacon: BluetoothBeacon) -> float:
        """Synchronous single measurement (calibration helper)."""
        return self.scanner.instant_rssi(beacon, self.sim.now).rssi


class _PendingTrace:
    """One floor trace in flight: its sample times, the means at them,
    and the samples taken so far.

    A tick would draw once on the carrier's stream (body blocking) and
    once or twice on the device's (noise, then occlusion if blocked).
    Nothing else reads those draws until the stream is used again, so
    they are deferred: :meth:`settle` takes every tick that is due in
    one pass, and runs from the trace's end event and before any other
    draw on either stream: ``Person.body_blocks_radio`` and
    ``Person.speak`` settle first, and so do ``app_wake_delay`` and the
    start of a ``measure_rssi`` scan.  The scanner's other draws (a
    scan's frames, ``instant_rssi``) each come after a body-blocking
    draw, which has settled them.  A tick is due once the kernel would
    have fired it (:meth:`due`).
    """

    __slots__ = ("device", "beacon", "group", "times", "means", "samples",
                 "callback", "held", "__weakref__")

    def __init__(self, device: MobileDevice, beacon: BluetoothBeacon,
                 callback: Callable[[List[RssiSample]], None]) -> None:
        sim = device.sim
        self.device = device
        self.beacon = beacon
        # The carrier's traces, this one included: they share its stream.
        self.group: List[_PendingTrace] = device.carrier._traces
        # The float chain the ticks ran on: now + 0.0, then + the period.
        self.times = list(accumulate(repeat(TRACE_SAMPLE_PERIOD, TRACE_SAMPLE_COUNT - 1),
                                     initial=sim.now + 0.0))
        self.means: List[float] = []
        self.samples: List[RssiSample] = []
        self.callback = callback
        # Started between runs, its first tick (due at this very
        # instant) would only fire in the next run.
        self.held = not sim.firing
        self._aim(0)

    def _aim(self, first: int) -> None:
        """Compute the means from tick ``first`` on, from where the
        carrier, the beacon and the plan are now."""
        times = self.times[first:]
        model = self.device.scanner.model
        tx = self.beacon.position
        walking, still = self.device.carrier.device_path(times)
        means = model.mean_rssi_coords(tx, walking).tolist() if walking.size else []
        if len(means) < len(times):
            means.extend(repeat(model.mean_rssi(tx, still), len(times) - len(means)))
        self.means[first:] = means

    def due(self, now: float, firing: bool) -> int:
        """How many ticks the kernel would have fired by ``now``.

        During an event, the ticks strictly before ``now``: an event at
        a tick's very instant was queued before the tick, which was
        queued one period earlier.  Between runs, every tick at or
        before ``now``, except the first tick of a trace started since
        the last run.
        """
        if firing:
            return bisect_left(self.times, now)
        if self.held and now == self.times[0]:
            return 0
        return bisect_right(self.times, now)

    def retarget(self) -> None:
        """The carrier, the beacon or the plan changed: the ticks not
        yet due get means from the new state (as ``instant_rssi`` at
        each would); those before keep theirs."""
        sim = self.device.sim
        first = max(self.due(sim._clock._now, sim.firing), len(self.samples))
        if first < TRACE_SAMPLE_COUNT:
            self._aim(first)

    def settle(self) -> None:
        """Take the due ticks of every trace on this carrier."""
        sim = self.device.sim
        _settle(self.group, sim._clock._now, sim.firing)

    def finish(self) -> None:
        """The end event, at the last tick: take what is left and
        deliver the samples."""
        _settle(self.group, self.times[-1], True, last=self)
        self.group.remove(self)
        self.beacon.unwatch(self)
        self.device.scanner.model.plan.unwatch(self)
        self.callback(self.samples)


def _settle(group: List[_PendingTrace], now: float, firing: bool,
            last: Optional[_PendingTrace] = None) -> None:
    """Take the due ticks of one carrier's traces (``group``, in start
    order), as the kernel would have fired them: by time, then, at one
    instant, in start order.  With ``last``, at its end event: all of
    its ticks, and the others' up to its last one in that order."""
    takes = []
    later = False
    for trace in group:
        if trace is last:
            stop, later = TRACE_SAMPLE_COUNT, True
        elif last is not None:
            stop = (bisect_left if later else bisect_right)(trace.times, now)
        else:
            stop = trace.due(now, firing)
        if stop > len(trace.samples):
            takes.append((trace, len(trace.samples), stop))
    if not takes:
        return
    carrier = group[0].device.carrier
    if len(takes) == 1:
        trace, start, stop = takes[0]
        _take(trace.device, takes, trace.means[start:stop],
              carrier._body_blocks_radio_many(stop - start).tolist())
        return
    # The carrier's draws interleave across its traces in tick order;
    # each device's draws do so across the traces on that device.
    ticks = sorted((trace.times[k], index, k)
                   for index, (trace, start, stop) in enumerate(takes)
                   for k in range(start, stop))
    blocked = carrier._body_blocks_radio_many(len(ticks)).tolist()
    streams: dict = {}
    for (_, index, k), flag in zip(ticks, blocked):
        streams.setdefault(takes[index][0].device, []).append((takes[index][0], k, flag))
    for device, draws in streams.items():
        _take(device, [(trace, k, k + 1) for trace, k, _ in draws],
              [trace.means[k] for trace, k, _ in draws],
              [flag for _, _, flag in draws])


def _take(device: MobileDevice, runs: list, means: List[float], blocked: List[bool]) -> None:
    """Draw ``device``'s samples for ``runs`` (``(trace, start, stop)``
    tick ranges, in draw order) around ``means``, and append them."""
    scanner = device.scanner
    values = scanner.model.noisy_rssi_batch(means, scanner._rng, blocked)
    offset = 0
    for trace, start, stop in runs:
        count = stop - start
        trace.samples.extend(map(tuple.__new__, repeat(RssiSample), zip(
            values[offset:offset + count], trace.times[start:stop],
            repeat(trace.beacon.name), repeat(scanner.name))))
        offset += count


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

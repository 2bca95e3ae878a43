"""A floor trace's receiver path, sample for sample.

``MobileDevice.record_trace`` knows a trace's 40 sample times when it
starts, so it computes the receiver positions (``Person.device_path``,
built on ``WalkRoute.positions_at``) and their mean RSSIs
(``PropagationModel.mean_rssi_coords``) in one vectorized pass; each
trace then defers its draws until its end event or another draw on
the carrier's or the device's stream, and takes them in one pass.
Every piece must reproduce its scalar reference exactly —
``position_at`` plus the carry offset, the scalar ``mean_rssi``, and a
trace whose every sample is ``instant_rssi`` on a 0.2 s event chain —
including when the carrier, the beacon or the plan changes mid-trace,
another scan or a speech draws on the same streams, at a tick's very
instant too, or two traces share a carrier or a device.  The
tuple-backed ``Point``/``RssiSample`` the path builds are pinned here
too.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.home.devices import TRACE_SAMPLE_COUNT, TRACE_SAMPLE_PERIOD
from repro.home.environment import HomeEnvironment
from repro.home.person import Person
from repro.radio.bluetooth import RssiSample
from repro.radio.floorplan import DEVICE_CARRY_HEIGHT
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel
from repro.radio.testbeds import WalkRoute, house_testbed
from repro.sim.simulator import Simulator

HOUSE = house_testbed()
ROUTES = sorted(HOUSE.routes)
SPEAKER = HOUSE.speaker_point(0)

# A coarse coordinate grid, so drawn routes repeat waypoints (zero-length
# segments) and land on each other's corners.
coordinate = st.sampled_from((0.0, 0.5, 1.25, 3.0, 4.0, 6.5))
waypoint = st.builds(Point, coordinate, coordinate, st.sampled_from((0.0, 3.0)))
routes = st.builds(
    WalkRoute, st.just("drawn"), st.lists(waypoint, min_size=1, max_size=6),
    st.one_of(st.sampled_from((0.0, -1.0, 1e-6)), st.floats(0.1, 30.0)))
instants = st.floats(-5.0, 40.0, allow_nan=False)


def corner_times(route: WalkRoute) -> list:
    """The instants at which the walk reaches each waypoint."""
    if route._length == 0 or route.duration <= 0:
        return [0.0]
    walked, times = 0.0, [0.0]
    for a, b, step in route._leading + ((route._final,) if route._final else ()):
        walked += step
        times.append(route.duration * walked / route._length)
    return times


def columns(coords: np.ndarray) -> list:
    return [Point(*column) for column in coords.T.tolist()]


class TestRoutePositions:
    @settings(max_examples=300, deadline=None)
    @given(routes, st.lists(instants, max_size=12))
    def test_positions_at_matches_position_at(self, route, times):
        times = times + corner_times(route) + [-0.0, route.duration, 2 * route.duration]
        got = columns(route.positions_at(times))
        assert got == [route.position_at(t) for t in times]
        carried = columns(route.positions_at(times) + [[0.0], [0.0], [DEVICE_CARRY_HEIGHT]])
        assert carried == [route.position_at(t).offset(dz=DEVICE_CARRY_HEIGHT) for t in times]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(ROUTES), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
           st.integers(1, 60))
    def test_device_path_matches_device_position(self, name, walked, start, count):
        """Read ``device_position`` at each tick of a trace that starts
        ``start`` s into a walk begun ``walked`` s into the run."""
        sim = Simulator()
        person = Person("walker", sim, np.random.default_rng(0), Point(1.0, 1.0, 0.0))
        sim.run_until(walked)
        person.follow(HOUSE.routes[name])
        sim.run_until(walked + start)
        times = [sim.now + 0.0]
        while len(times) < count:
            times.append(times[-1] + TRACE_SAMPLE_PERIOD)
        walking, still = person.device_path(times)
        expected = []
        for t in times:
            sim.run_until(t)
            expected.append(person.device_position())
        moving = walking.shape[1]
        assert columns(walking) == expected[:moving]
        assert expected[moving:] == [still] * (count - moving)

    def test_standing_person_has_no_walking_columns(self):
        person = Person("p", Simulator(), np.random.default_rng(0), Point(2.0, 3.0, 0.0))
        walking, still = person.device_path([0.0, 0.2, 0.4])
        assert walking.shape == (3, 0)
        assert still == person.device_position()


def walking_receivers(pairs) -> list:
    return [HOUSE.routes[name].position_at(t).offset(dz=DEVICE_CARRY_HEIGHT)
            for name, t in pairs]


class TestBatchedMeanRssi:
    """The one vectorized pipeline squares exactly as ``distance`` does
    (libm ``pow``, not ``x * x``); the five receivers below are walking
    positions where the two disagree by an ulp in the mean."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ROUTES), st.floats(0.0, 12.0)),
                    min_size=1, max_size=40))
    @example([("route1", 0.6352367519202602), ("route1", 6.735574370462411),
              ("route2", 0.9810542204096113), ("up", 1.896458511594033),
              ("route1_restroom", 7.706749222500753)])
    def test_mean_rssi_many_matches_scalar_reference(self, pairs):
        model = PropagationModel(HOUSE.plan, seed=7)
        points = walking_receivers(pairs)
        reference = [model.mean_rssi_uncached(SPEAKER, rx) for rx in points]
        assert model.mean_rssi_many(SPEAKER, points).tolist() == reference

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ROUTES), st.floats(0.0, 12.0)),
                    max_size=40))
    @example([("route1", 0.6352367519202602), ("up", 1.896458511594033)])
    def test_mean_rssi_coords_matches_and_leaves_endpoint_memos_alone(self, pairs):
        model = PropagationModel(HOUSE.plan, seed=7)
        points = walking_receivers(pairs)
        coords = np.array(points, dtype=np.float64).reshape(-1, 3).T
        HOUSE.plan._crossing_cache.clear()
        got = model.mean_rssi_coords(SPEAKER, coords).tolist()
        assert not model._mean_cache and not HOUSE.plan._crossing_cache
        assert got == [model.mean_rssi_uncached(SPEAKER, rx) for rx in points]


# -- whole traces ---------------------------------------------------------

def scalar_trace(device, beacon, callback) -> None:
    """The reference recorder: a plain ``sim.post`` chain whose every
    sample is ``instant_rssi``."""
    samples = []

    def take_sample() -> None:
        samples.append(device.scanner.instant_rssi(beacon, device.sim.now))
        if len(samples) < TRACE_SAMPLE_COUNT:
            device.sim.post(TRACE_SAMPLE_PERIOD, take_sample)
        else:
            callback(samples)

    device.sim.post(0.0, take_sample)


def batched_trace(device, beacon, callback) -> None:
    device.record_trace(beacon, callback)


def tick_times(start: float) -> list:
    """A trace's sample times when it starts at ``start``."""
    times = [start + 0.0]
    while len(times) < TRACE_SAMPLE_COUNT:
        times.append(times[-1] + TRACE_SAMPLE_PERIOD)
    return times


MID_TRACE_EVENTS = {
    "none": lambda env, owner, phone, log: None,
    "follow": lambda env, owner, phone, log: owner.follow(env.testbed.routes["down"]),
    "teleport": lambda env, owner, phone, log: owner.teleport(Point(2.0, 2.0, 0.0)),
    "beacon.move_to": lambda env, owner, phone, log: env.speaker_beacon.move_to(
        Point(1.0, 6.0, 0.8)),
    "add_wall": lambda env, owner, phone, log: env.testbed.plan.add_wall(
        (0.0, 4.0), (6.0, 4.0), floor=0),
    "measure_rssi": lambda env, owner, phone, log: phone.measure_rssi(
        env.speaker_beacon, log.append),
    "speak": lambda env, owner, phone, log: log.append(
        owner.speak("alexa what time is it", 1.5).embedding.tolist()),
}
TRACE_START, EVENT_AFTER = 1.0, 2.3  # the event lands between two ticks
AT_TICK = 7  # the tick whose very instant an event can land on
# When the mid-trace event happens:
WHEN = {
    # in an event between two ticks;
    "between": lambda sim, times, fire: sim.post(EVENT_AFTER, fire),
    # in an event queued at the start for a tick's very instant, which
    # fires before that tick;
    "at_tick": lambda sim, times, fire: sim.post_at(times[AT_TICK], fire),
    # between runs, the last of which ended at a tick's very instant
    # (that tick has fired);
    "between_runs_at_tick": lambda sim, times, fire: (sim.run_until(times[AT_TICK]), fire()),
    # between runs, right after the trace started (its first tick has
    # not fired).
    "at_start": lambda sim, times, fire: fire(),
}


def house_world():
    env = HomeEnvironment(house_testbed(), seed=31)
    owner = env.add_person("owner", env.testbed.routes["up"].waypoints[0])
    phone = env.add_smartphone("phone", owner)
    return env, owner, phone


def stream_states(env) -> list:
    return [(name, stream.bit_generator.state) for name, stream in sorted(env.rng._streams.items())]


def run_trace(record, event: str, walk: bool, when: str = "between"):
    env, owner, phone = house_world()
    scalar_calls = []
    instant_rssi = phone.scanner.instant_rssi

    def counted(beacon, time):
        scalar_calls.append(time)
        return instant_rssi(beacon, time)

    phone.scanner.instant_rssi = counted
    if walk:
        owner.follow(env.testbed.routes["up"])
    env.sim.run_for(TRACE_START)
    traces, log = [], []
    record(phone, env.speaker_beacon, traces.append)
    WHEN[when](env.sim, tick_times(env.sim.now),
               lambda: MID_TRACE_EVENTS[event](env, owner, phone, log))
    env.sim.run_for(12.0)
    return traces, log, stream_states(env), scalar_calls


def run_traces(record, starts, events):
    """Owner (phone and watch) and guest (phone) walk the stairs; at
    each ``(time, device names)`` of ``starts`` one event records a
    trace on each named device, in that order, and at each ``(time,
    event, device name)`` of ``events`` an event runs
    ``MID_TRACE_EVENTS[event]`` on that device and its carrier."""
    env, owner, phone = house_world()
    guest = env.add_person("guest", env.testbed.routes["down"].waypoints[0])
    devices = {"phone": phone, "watch": env.add_smartwatch("watch", owner),
               "guest-phone": env.add_smartphone("guest-phone", guest)}
    owner.follow(env.testbed.routes["up"])
    guest.follow(env.testbed.routes["down"])
    traces, log = [], []

    def start(names) -> None:
        for name in names:
            record(devices[name], env.speaker_beacon,
                   lambda samples, name=name: traces.append((name, samples)))

    def fire(event, name) -> None:
        device = devices[name]
        MID_TRACE_EVENTS[event](env, device.carrier, device, log)

    for time, names in starts:
        env.sim.post_at(time, start, names)
    for time, event, name in events:
        env.sim.post_at(time, fire, event, name)
    env.sim.run_for(20.0)
    return traces, log, stream_states(env)


class TestBatchedTrace:
    @pytest.mark.parametrize("walk", [True, False], ids=["walking", "standing"])
    @pytest.mark.parametrize("event", sorted(MID_TRACE_EVENTS))
    def test_batched_trace_equals_scalar_trace(self, event, walk):
        batched = run_trace(batched_trace, event, walk)
        reference = run_trace(scalar_trace, event, walk)
        traces, log, states, scalar_calls = batched
        assert len(traces) == 1 and len(traces[0]) == TRACE_SAMPLE_COUNT
        assert traces == reference[0]
        assert log == reference[1]
        assert states == reference[2]
        # A change recomputes means; no sample falls back to instant_rssi.
        assert scalar_calls == []

    @pytest.mark.parametrize("when", sorted(set(WHEN) - {"between"}))
    @pytest.mark.parametrize("event", sorted(set(MID_TRACE_EVENTS) - {"none"}))
    def test_event_at_a_tick_instant_sees_what_the_ticks_saw(self, event, when):
        """A draw or a change at exactly a tick's time lands on the same
        side of that tick as it did when each tick was an event."""
        batched = run_trace(batched_trace, event, True, when)
        reference = run_trace(scalar_trace, event, True, when)
        assert batched[0] == reference[0]
        assert batched[1] == reference[1]
        assert batched[2] == reference[2]

    @pytest.mark.parametrize("starts, events", [
        # phone and watch start at one instant (as on_motion starts
        # them): the owner's stream interleaves their ticks.
        ([(1.0, ("phone", "watch"))],
         [(2.3, "measure_rssi", "watch"), (3.1, "speak", "phone"),
          (4.7, "measure_rssi", "phone")]),
        # ... staggered, so their ticks fall at different instants.
        ([(1.0, ("phone",)), (1.9, ("watch",))],
         [(2.3, "measure_rssi", "watch"), (5.5, "teleport", "phone"),
          (7.1, "speak", "watch")]),
        # two traces on one device, overlapping.
        ([(1.0, ("phone",)), (2.5, ("phone",))],
         [(3.3, "measure_rssi", "phone"), (6.0, "follow", "phone")]),
    ], ids=["one-carrier-same-instant", "one-carrier-staggered", "one-device"])
    def test_traces_sharing_a_carrier_equal_scalar_traces(self, starts, events):
        batched = run_traces(batched_trace, starts, events)
        reference = run_traces(scalar_trace, starts, events)
        assert len(batched[0]) == sum(len(names) for _, names in starts)
        assert batched == reference

    def test_overlapping_traces_on_two_carriers_equal_scalar_traces(self):
        starts = [(1.0, ("phone",)), (3.9, ("guest-phone",))]
        events = [(4.3, "measure_rssi", "phone"), (5.0, "speak", "guest-phone"),
                  (6.1, "beacon.move_to", "phone"), (8.2, "measure_rssi", "guest-phone")]
        batched = run_traces(batched_trace, starts, events)
        assert len(batched[0]) == 2
        assert batched == run_traces(scalar_trace, starts, events)

    def test_trace_is_one_event_at_its_last_sample(self):
        """A trace is one heap entry, at its last sample's time; it takes
        the 40 sequence numbers its ticks took, and nothing is left
        queued once the trace is delivered."""
        env, owner, phone = house_world()
        env.sim.run_for(TRACE_START)
        traces = []
        queue = env.sim._queue
        seq = queue._next_seq
        phone.record_trace(env.speaker_beacon, traces.append)
        expected = tick_times(TRACE_START)
        assert env.sim.pending_events == 1
        assert [entry[:2] for entry in queue._heap] == [(expected[-1], seq)]
        assert queue._next_seq == seq + TRACE_SAMPLE_COUNT
        fired = env.sim.run_for(12.0)
        assert [sample.time for sample in traces[0]] == expected
        assert fired == 1
        assert env.sim.pending_events == 0 and not queue._heap
        assert owner._traces == [] and env.speaker_beacon._watchers == []
        assert not list(env.testbed.plan._watchers)

    def test_draws_wait_for_the_end_or_a_foreign_use(self):
        env, owner, phone = house_world()
        env.sim.run_for(TRACE_START)
        phone.record_trace(env.speaker_beacon, lambda samples: None)
        trace = owner._traces[0]
        before = stream_states(env)
        env.sim.run_for(3.0)
        assert trace.samples == [] and stream_states(env) == before
        phone.app_wake_delay()  # between runs: every tick up to now is due
        assert [s.time for s in trace.samples] == [t for t in trace.times if t <= env.sim.now]

    def test_mid_trace_measurement_interleaves_its_draws(self):
        traces, scans, _, _ = run_trace(batched_trace, "measure_rssi", True)
        assert len(scans) == 1
        assert TRACE_START + EVENT_AFTER < scans[0].time < traces[0][-1].time


class TestBatchedDraws:
    """The draws a settle batches replay the scalar calls' bitstream."""

    @pytest.mark.parametrize("count", [1, 2, 39, 40, 41, 97])
    def test_random_k_is_k_scalar_randoms(self, count):
        batch, scalar = np.random.default_rng(5), np.random.default_rng(5)
        assert batch.random(count).tolist() == [scalar.random() for _ in range(count)]
        assert batch.bit_generator.state == scalar.bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), max_size=60),
           st.lists(st.floats(-40.0, 5.0), min_size=60, max_size=60))
    def test_noisy_rssi_batch_is_noisy_rssi_per_sample(self, blocked, means):
        model = PropagationModel(HOUSE.plan, seed=7)
        batch, scalar = np.random.default_rng(9), np.random.default_rng(9)
        means = means[:len(blocked)]
        got = model.noisy_rssi_batch(means, batch, blocked)
        assert got == [model.noisy_rssi(mean, scalar, flag)
                       for mean, flag in zip(means, blocked)]
        assert batch.bit_generator.state == scalar.bit_generator.state


# -- tuple-backed values --------------------------------------------------

class TestTupleValues:
    def test_point_hash_repr_and_defaults(self):
        p = Point(1.5, -2.25, 3.0)
        assert hash(p) == hash((1.5, -2.25, 3.0))
        assert repr(p) == "Point(x=1.5, y=-2.25, z=3.0)"
        assert str(p) == repr(p)
        assert (p.x, p.y, p.z) == (1.5, -2.25, 3.0)
        assert Point(1.0, 2.0).z == 1.0
        assert Point(x=1.0, y=2.0, z=0.5) == Point(1.0, 2.0, 0.5)
        assert p.offset(dz=1.0) == Point(1.5, -2.25, 4.0)
        assert p.lerp(Point(3.5, 1.75, 3.0), 0.5) == Point(2.5, -0.25, 3.0)
        assert p.xy() == (1.5, -2.25)
        assert p + Point(0.0, 0.0) == (1.5, -2.25, 3.0, 0.0, 0.0, 1.0)

    def test_rssi_sample_hash_and_repr(self):
        sample = RssiSample(rssi=-0.59397002811183, time=32.0457734236856,
                            beacon_name="house-speaker", scanner_name="phone1-scanner")
        assert hash(sample) == hash((-0.59397002811183, 32.0457734236856,
                                     "house-speaker", "phone1-scanner"))
        # tests/goldens embed this exact text.
        assert repr(sample) == (
            "RssiSample(rssi=-0.59397002811183, time=32.0457734236856, "
            "beacon_name='house-speaker', scanner_name='phone1-scanner')")
        assert (sample.rssi, sample.time, sample.beacon_name, sample.scanner_name) == (
            -0.59397002811183, 32.0457734236856, "house-speaker", "phone1-scanner")

    @pytest.mark.parametrize("value, field", [
        (Point(1.0, 2.0, 3.0), "x"), (Point(1.0, 2.0, 3.0), "z"),
        (RssiSample(-3.5, 1.25, "beacon", "scanner"), "rssi"),
        (RssiSample(-3.5, 1.25, "beacon", "scanner"), "scanner_name")])
    def test_immutable(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(TypeError):
            value[0] = 0.0

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("value", [
        Point(1.0, 2.0, 3.0), RssiSample(-3.5, 1.25, "beacon", "scanner")])
    def test_pickles(self, value, protocol):
        restored = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert type(restored) is type(value)
        assert restored == value and hash(restored) == hash(value)
        assert repr(restored) == repr(value)

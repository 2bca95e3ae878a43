"""A floor trace's receiver path, sample for sample.

``MobileDevice.record_trace`` knows a trace's 40 sample times when it
starts, so it computes the receiver positions (``Person.device_path``,
built on ``WalkRoute.positions_at``) and their mean RSSIs
(``PropagationModel.mean_rssi_coords``) in one vectorized pass; each
tick then only makes its draws.  Every piece must reproduce its scalar
reference exactly — ``position_at`` plus the carry offset, the scalar
``mean_rssi``, and a trace whose every sample is ``instant_rssi`` —
including when the carrier, the beacon or the plan changes mid-trace,
or another scan on the same device interleaves its draws.  The
``PeriodicTask`` ticks and the tuple-backed ``Point``/``RssiSample``
the path builds are pinned here too.
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
from repro.sim.process import PeriodicTask
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
    """The reference recorder: every sample is ``instant_rssi``."""
    samples = []

    def take_sample(now: float) -> None:
        samples.append(device.scanner.instant_rssi(beacon, now))
        if len(samples) >= TRACE_SAMPLE_COUNT:
            task.stop()
            callback(samples)

    task = PeriodicTask(device.sim, TRACE_SAMPLE_PERIOD, take_sample, first_delay=0.0)
    task.start()


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
}
# Events that can change a later sample's mean: from then on the
# batched recorder must fall back to instant_rssi.
INVALIDATING = {"follow", "teleport", "beacon.move_to", "add_wall"}
TRACE_START, EVENT_AFTER = 1.0, 2.3  # the event lands between two ticks


def run_trace(record, event: str, walk: bool):
    env = HomeEnvironment(house_testbed(), seed=31)
    owner = env.add_person("owner", env.testbed.routes["up"].waypoints[0])
    phone = env.add_smartphone("phone", owner)
    scalar_calls = []
    instant_rssi = phone.scanner.instant_rssi

    def counted(beacon, time):
        scalar_calls.append(time)
        return instant_rssi(beacon, time)

    phone.scanner.instant_rssi = counted
    if walk:
        owner.follow(env.testbed.routes["up"])
    env.sim.run_for(TRACE_START)
    traces, scans = [], []
    record(phone, env.speaker_beacon, traces.append)
    env.sim.post(EVENT_AFTER, MID_TRACE_EVENTS[event], env, owner, phone, scans)
    env.sim.run_for(12.0)
    states = (owner._rng.bit_generator.state, phone.scanner._rng.bit_generator.state)
    return traces, scans, states, scalar_calls


class TestBatchedTrace:
    @pytest.mark.parametrize("walk", [True, False], ids=["walking", "standing"])
    @pytest.mark.parametrize("event", sorted(MID_TRACE_EVENTS))
    def test_batched_trace_equals_scalar_trace(self, event, walk):
        batched = run_trace(lambda d, b, c: d.record_trace(b, c), event, walk)
        reference = run_trace(scalar_trace, event, walk)
        traces, scans, states, scalar_calls = batched
        assert len(traces) == 1 and len(traces[0]) == TRACE_SAMPLE_COUNT
        assert traces == reference[0]
        assert scans == reference[1]
        assert states == reference[2]
        # The fallback runs exactly from the first tick after the event.
        first_after = [s.time for s in traces[0] if s.time > TRACE_START + EVENT_AFTER]
        assert scalar_calls == (first_after if event in INVALIDATING else [])

    def test_mid_trace_measurement_interleaves_its_draws(self):
        traces, scans, _, _ = run_trace(lambda d, b, c: d.record_trace(b, c),
                                        "measure_rssi", True)
        assert len(scans) == 1
        assert TRACE_START + EVENT_AFTER < scans[0].time < traces[0][-1].time


# -- PeriodicTask ticks --------------------------------------------------

class TestPeriodicTaskGenerations:
    def test_stop_inside_callback(self):
        sim = Simulator()
        fired = []

        def tick(now):
            fired.append(now)
            if len(fired) == 3:
                task.stop()

        task = PeriodicTask(sim, 1.0, tick)
        task.start()
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert task.fire_count == 3 and not task.running
        assert sim.pending_events == 0

    def test_stop_then_start_from_outside_leaves_one_chain(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, 1.0, fired.append)
        task.start()
        sim.run_until(2.5)
        task.stop()
        task.start()
        sim.run_until(6.0)
        # The old chain's tick queued for 3.0 is dead; the new one runs
        # from the restart.
        assert fired == [1.0, 2.0, 3.5, 4.5, 5.5]
        assert task.fire_count == 5

    def test_restart_inside_callback_leaves_one_chain(self):
        sim = Simulator()
        fired = []

        def tick(now):
            fired.append(now)
            if len(fired) == 2:
                task.stop()
                task.start()

        task = PeriodicTask(sim, 1.0, tick)
        task.start()
        events = sim.run_until(5.0)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
        # No tick of the stopped generation was even queued.
        assert events == len(fired) and sim.pending_events == 1

    def test_start_while_running_is_a_no_op(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, 1.0, fired.append, first_delay=0.0)
        task.start()
        task.start()
        sim.run_until(2.0)
        assert fired == [0.0, 1.0, 2.0]


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

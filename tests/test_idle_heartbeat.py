"""The idle heartbeat step (repro.speakers.idle) is exact.

Every test runs one world twice from the same pickled start: as
shipped, and with ``advance_idle_periods`` patched to decline, so every
heartbeat period takes the event path.  The two end states must pickle
to the same bytes with the pool's snapshot pickler, and every RNG stream
(which that pickler writes as a reference) must end in the same state.
"""

from __future__ import annotations

import contextlib
import io
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import pool, scenarios
from repro.experiments import workload as workload_module
from repro.net.packet import Protocol, TlsRecordType
from repro.net.proxy import HeldRecord
from repro.speakers import idle
from repro.speakers.signatures import HEARTBEAT_PERIOD
from tests.equivalence import _packet_fields

REAL_STEP = idle.advance_idle_periods


def build(seed: int = 7, extra_echo: bool = False) -> bytes:
    scenario = scenarios.build_scenario("house", "echo", deployment=0, owner_count=2,
                                        seed=seed)
    if extra_echo:
        scenarios.add_echo_speaker(scenario)
        scenario.settle()
    return pickle.dumps(scenario)


@pytest.fixture(scope="module")
def world() -> bytes:
    return build()


class Spy:
    """Stands in for the step: declines when ``decline``, else runs it.

    Records how many periods each engaged step advanced, whether it
    refilled the jitter buffer, and for each call ``(probe(echo),
    engaged)`` when given a ``probe``.
    """

    def __init__(self, decline: bool, probe=None) -> None:
        self.decline = decline
        self.probe = probe
        self.calls = []
        self.steps = []
        self.refills = 0

    def __call__(self, echo) -> bool:
        probed = self.probe(echo) if self.probe is not None else None
        engaged = False
        if not self.decline:
            network = echo.network
            buffer, now = network._jitter_buf, echo.sim.now
            engaged = REAL_STEP(echo)
            if engaged:
                self.steps.append(round(
                    (echo._heartbeat_timer._next_fire - now) / HEARTBEAT_PERIOD))
                self.refills += network._jitter_buf is not buffer
        self.calls.append((probed, engaged))
        return engaged


@contextlib.contextmanager
def stepping(step):
    """Run the block with ``step`` in place of the idle step."""
    idle.advance_idle_periods = step
    try:
        yield step
    finally:
        idle.advance_idle_periods = REAL_STEP


def end_state(scenario) -> bytes:
    """The world's snapshot bytes plus every RNG stream's state.  The
    heap is compared as sorted entries: its array layout depends on the
    push/pop history, its pop order only on the unique (time, seq)
    keys, and a sorted list is a valid heap."""
    scenario.sim._queue._heap.sort()
    buffer = io.BytesIO()
    pool._SnapshotPickler(buffer, (), scenario.env.rng).dump(scenario)
    streams = sorted((name, repr(stream.bit_generator.state))
                     for name, stream in scenario.env.rng._streams.items())
    return buffer.getvalue() + repr(streams).encode()


def state_between_events(scenario) -> bytes:
    """:func:`end_state` of a world paused inside a run, the clock and
    the running deadline left out (a step runs at the first period's
    heartbeat, the event path reaches the same state just before the
    last period's)."""
    sim = scenario.sim
    now, until = sim._clock._now, sim._until
    sim._clock._now, sim._until = 0.0, -math.inf
    try:
        return end_state(scenario)
    finally:
        sim._clock._now, sim._until = now, until


def run_twice(blob: bytes, drive, probe=None) -> Spy:
    """Drive the world as shipped and on the event path alone; require
    equal end states and return the shipped run's spy."""
    states, spies = [], []
    for decline in (False, True):
        scenario = pickle.loads(blob)
        with stepping(Spy(decline, probe)) as spy:
            drive(scenario)
        states.append(end_state(scenario))
        spies.append(spy)
    assert states[0] == states[1]
    return spies[0]


def past_next_heartbeat(offset: float):
    def drive(scenario) -> None:
        sim = scenario.sim
        sim.run_until(scenario.speaker._heartbeat_timer._next_fire + offset)
    return drive


# -- exactness ---------------------------------------------------------------
def test_two_periods_ahead_skips_one(world):
    assert run_twice(world, past_next_heartbeat(75.0)).steps == [1]


def test_deadline_on_the_second_period_still_skips(world):
    assert run_twice(world, past_next_heartbeat(2 * HEARTBEAT_PERIOD)).steps == [1]


def test_long_skip_crosses_jitter_refills(world):
    spy = run_twice(world, past_next_heartbeat(300 * HEARTBEAT_PERIOD + 11.0))
    assert spy.steps == [299]
    assert spy.refills == 1  # one step, several 256-draw blocks


def test_one_period_skip_that_refills_the_jitter_buffer(world):
    def drive(scenario) -> None:
        sim, network = scenario.sim, scenario.network
        timer = scenario.speaker._heartbeat_timer
        # One period at a time on the event path (the deadline is inside
        # the next period) until the next period's draws need a refill.
        while len(network._jitter_buf) - network._jitter_idx >= 8:
            sim.run_until(timer._next_fire + 1.0)
        sim.run_until(timer._next_fire + 75.0)

    spy = run_twice(world, drive)
    assert spy.steps == [1] and spy.refills == 1


def test_state_right_after_a_step_is_the_event_paths(world):
    # Compared before the event path's last period overwrites each leg's
    # last-receive time and keepalive deadline.
    shipped = pickle.loads(world)
    taken = {}

    def step(echo) -> bool:
        engaged = REAL_STEP(echo)
        if engaged and not taken:
            taken["heartbeat"] = echo._heartbeat_timer._next_fire
            taken["state"] = state_between_events(shipped)
        return engaged

    with stepping(step):
        shipped.sim.run_for(40 * HEARTBEAT_PERIOD)
    event_path = pickle.loads(world)
    with stepping(Spy(decline=True)):
        event_path.sim.run_until(math.nextafter(taken["heartbeat"], -math.inf))
    assert state_between_events(event_path) == taken["state"]


@settings(max_examples=20, deadline=None)
@given(offsets=st.lists(st.floats(0.0, 4000.0), min_size=1, max_size=4))
def test_random_horizons(world, offsets):
    def drive(scenario) -> None:
        for offset in offsets:
            scenario.sim.run_for(offset)

    run_twice(world, drive)


def test_week_of_episodes_matches_the_event_path(world):
    # Episodes ~1 h apart: commands, floor traces and decisions between
    # idle stretches, and a window left open by each command.
    def drive(scenario) -> None:
        workload_module.SevenDayWorkload(
            scenario, episode_gap=workload_module.SEVEN_DAY_GAP).run(3, 2)
        scenario.sim.run_for(600.0)

    spy = run_twice(world, drive)
    assert len(spy.steps) >= 5


def test_observers_see_the_event_paths_packets(world):
    seen = []

    def drive(scenario) -> None:
        packets = []
        sim = scenario.sim
        scenario.network.add_observer(
            lambda packet, scope: packets.append((sim.now, scope, _packet_fields(packet))))
        sim.run_for(3000.0)
        scenario.network._observers.clear()  # a lambda does not pickle
        seen.append(packets)

    assert run_twice(world, drive).steps
    assert seen[0] == seen[1] and len(seen[0]) > 700


# -- declines ----------------------------------------------------------------
def declines(blob: bytes, prepare, hours: float = 1.0) -> None:
    """After ``prepare(scenario)`` in both runs, an hour of idle time
    never takes the step and ends as the event path does."""
    def drive(scenario) -> None:
        prepare(scenario)
        scenario.sim.run_for(hours * 3600.0)

    spy = run_twice(blob, drive)
    assert spy.calls and spy.steps == []


def _flow(scenario):
    proxy = scenario.guard.proxy
    conn = scenario.speaker._conn
    return proxy.open_flows[(Protocol.TCP, conn.local, conn.remote)]


def test_lossy_wan_declines(world):
    # Each WAN packet would draw from net.loss; compressed_lossy pins that path.
    declines(world, lambda scenario: setattr(scenario.network, "wan_loss", 0.03))


def test_held_records_decline(world):
    def hold(scenario) -> None:
        _flow(scenario).held.append(HeldRecord(
            41, TlsRecordType.APPLICATION_DATA, 0, {}, scenario.sim.now))

    declines(world, hold)


def test_open_window_declines(world):
    # A command's windows stay open until the next record after the
    # idle gap expires them, which the first heartbeat after it does.
    guard = {}

    def window_open(echo) -> bool:
        flows = guard["proxy"].open_flows.values()
        return any(flow.policy_state is not None and flow.policy_state.window is not None
                   for flow in flows)

    def drive(scenario) -> None:
        guard["proxy"] = scenario.guard.proxy
        scenario.speak_command(scenario.env.rng.stream("test.idle"))
        scenario.sim.run_for(3000.0)

    spy = run_twice(world, drive, probe=window_open)
    assert (True, False) in spy.calls and (True, True) not in spy.calls
    assert spy.steps


def test_second_heartbeating_speaker_declines():
    declines(build(extra_echo=True), lambda scenario: None)


@pytest.mark.parametrize("offset", [45.0, 2 * HEARTBEAT_PERIOD - 1e-6])
def test_deadline_inside_the_next_period_declines(world, offset):
    assert run_twice(world, past_next_heartbeat(offset)).steps == []


# -- bounded state -----------------------------------------------------------
STATE_BOUND = 48
# A Google home's sessions are on demand: between commands no flow stays
# open, so its peaks are those of a single command.
GOOGLE_FLOW_BOUND = 4


def peak_state(days: float, speaker: str = "echo", seed: int = 11) -> dict:
    """The largest heap, FIFO-floor map, open proxy flow count, count
    of open flows carrying recognizer state and count of the speaker's
    UDP ports that a seven-day house home reaches between ``run_until``
    calls while its workload spans ``days`` simulated days."""
    scenario = scenarios.build_scenario("house", speaker, deployment=0, owner_count=2,
                                        seed=seed)
    sim, proxy = scenario.sim, scenario.guard.proxy
    peak = {"heap": 0, "floors": 0, "recognizer_flows": 0, "open_flows": 0,
            "speaker_udp_ports": 0}
    run_until = sim.run_until

    def sampled(time, max_events=None):
        fired = run_until(time, max_events)
        flows = proxy.open_flows.values()
        for name, value in (("heap", len(sim._queue._heap)),
                            ("floors", len(scenario.network._last_delivery)),
                            ("recognizer_flows",
                             sum(flow.policy_state is not None for flow in flows)),
                            ("open_flows", len(flows)),
                            ("speaker_udp_ports", len(scenario.speaker._udp_handlers))):
            peak[name] = max(peak[name], value)
        return fired

    sim.run_until = sampled
    gap = workload_module.SEVEN_DAY_GAP
    episodes = round(days * 86400.0 / ((gap[0] + gap[1]) / 2))
    workload_module.SevenDayWorkload(scenario, episode_gap=gap).run(
        episodes - episodes // 2, episodes // 2)
    peak["days"] = sim.now / 86400.0
    return peak


def test_echo_state_stays_bounded_over_a_week():
    half, week = peak_state(3.5), peak_state(7.0)
    assert week["days"] > 1.8 * half["days"]
    for name in ("heap", "floors", "recognizer_flows", "open_flows"):
        assert half[name] <= STATE_BOUND and week[name] <= STATE_BOUND, (name, half, week)


@pytest.fixture(scope="module")
def google_peaks():
    return tuple(peak_state(days, "google", seed=101) for days in (3.5, 7.0))


def test_google_flows_end_over_a_week(google_peaks):
    """Every QUIC and TCP session of an on-demand Google home ends, and
    its recognizer state with it, however many days the home runs."""
    half, week = google_peaks
    assert week["days"] > 1.8 * half["days"]
    for name in ("recognizer_flows", "open_flows"):
        assert half[name] <= GOOGLE_FLOW_BOUND and week[name] <= GOOGLE_FLOW_BOUND, (
            name, half, week)


def test_google_speaker_frees_quic_ports_over_a_week(google_peaks):
    """The speaker's own side of each QUIC session ends too: its port
    is freed after the idle timeout, so the speaker holds its DNS port
    and the ports of the sessions still open, however many days run."""
    half, week = google_peaks
    for peak in (half, week):
        assert peak["speaker_udp_ports"] <= GOOGLE_FLOW_BOUND, (half, week)

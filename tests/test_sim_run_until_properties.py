"""Property tests (hypothesis) for the kernel's inlined dispatch loop.

``Simulator.run_until`` pops the heap itself instead of going through
``EventQueue``.  Over random mixes of posts, cancellable schedules,
cancels, equal-time ties, ``max_events`` budgets and limits that land
exactly on event times, it must fire what a reference loop built on
``Simulator.step`` fires, in the same order, and leave the queue's
bookkeeping (``len(queue)``, dead entries) exactly where that loop
does.  ``Network.send`` and ``DeadlineTimer`` push heap entries
directly, so the worlds mix them in and check the live count against a
scan of the heap.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Host, Network
from repro.net.packet import Packet, Protocol
from repro.sim.process import DeadlineTimer
from repro.sim.random import RngHub
from repro.sim.simulator import Simulator

# A coarse grid, so events tie and run_until limits hit event times.
TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)
OPS = ("post", "schedule", "cancel", "send", "arm", "disarm")
TIMER_COUNT = 3

op = st.tuples(st.sampled_from(OPS), st.integers(0, len(TIMES) - 1), st.integers(0, 50))
limits = st.lists(st.integers(0, len(TIMES) - 1), min_size=1, max_size=6)
budget = st.one_of(st.none(), st.integers(0, 6))


class World:
    """One simulator driven by a fixed op script.

    Events are tagged in creation order; when tag ``k`` fires it runs
    ``reactions[k]`` (if any), so callbacks also post, cancel, send and
    re-arm mid-run.  Each tag fires at most once and only reactions add
    tags, so every script terminates.
    """

    def __init__(self, reactions):
        self.sim = Simulator()
        self.reactions = reactions
        self.fired = []
        self.handles = []
        self.next_tag = 0
        self.timers = [DeadlineTimer(self.sim, partial(self._timer_fired, index))
                       for index in range(TIMER_COUNT)]
        self.network = Network(self.sim, RngHub(11))
        self.lan = Host("a", IPv4Address("192.168.1.10"))
        self.wan = Host("b", IPv4Address("54.1.1.1"))
        self.network.attach(self.lan)
        self.network.attach(self.wan)
        self.network.add_observer(self._delivered)

    def _tag(self):
        self.next_tag += 1
        return self.next_tag - 1

    def apply(self, name, time_index, target):
        sim, delay = self.sim, TIMES[time_index]
        if name == "post":
            sim.post(delay, self._fire, self._tag())
        elif name == "schedule":
            self.handles.append(sim.schedule(delay, self._fire, self._tag()))
        elif name == "cancel":
            if self.handles:
                self.handles[target % len(self.handles)].cancel()
        elif name == "send":
            origin, other = (self.lan, self.wan) if target % 2 else (self.wan, self.lan)
            self.network.send(origin, Packet(
                src=Endpoint(origin.ip, 5000), dst=Endpoint(other.ip, 5001),
                protocol=Protocol.UDP, payload_len=1 + self._tag()))
        elif name == "arm":
            self.timers[target % TIMER_COUNT].schedule_in(delay)
        else:
            self.timers[target % TIMER_COUNT].cancel()

    def _react(self, tag):
        if tag < len(self.reactions):
            self.apply(*self.reactions[tag])

    def _fire(self, tag):
        self.fired.append((self.sim.now, "event", tag))
        self._react(tag)

    def _timer_fired(self, index):
        self.fired.append((self.sim.now, "timer", index))

    def _delivered(self, packet, _scope):
        tag = packet.payload_len - 1
        self.fired.append((self.sim.now, "packet", tag))
        self._react(tag)

    def state(self):
        queue = self.sim._queue
        return (self.sim.now, len(queue), queue._dead, len(queue._heap))

    def live_scan(self):
        return sum(1 for entry in self.sim._queue._heap
                   if entry[2] is None or not entry[2].cancelled)


def step_until(sim, time, max_events=None):
    """``run_until`` written with ``step``: the reference semantics."""
    fired = 0
    while max_events is None or fired < max_events:
        next_time = sim._queue.peek_time()
        if next_time is None or next_time > time:
            break
        sim.step()
        fired += 1
    sim._clock.advance_to(time)
    return fired


@settings(max_examples=300, deadline=None)
@given(setup=st.lists(op, max_size=30), reactions=st.lists(op, max_size=40),
       limits=limits, max_events=budget)
def test_run_until_matches_stepping(setup, reactions, limits, max_events):
    """``max_events`` applies to the last run only: a budget that stops
    short still moves the clock to the limit, so a later run would fire
    the leftovers behind the clock, which ``step`` refuses to do."""
    inlined, stepped = World(reactions), World(reactions)
    for world in (inlined, stepped):
        for args in setup:
            world.apply(*args)
    assert inlined.live_scan() == len(inlined.sim._queue)
    runs = [(index, None) for index in limits[:-1]] + [(limits[-1], max_events)]
    for time_index, max_events in runs:
        limit = inlined.sim.now + TIMES[time_index]
        fired = inlined.sim.run_until(limit, max_events=max_events)
        assert fired == step_until(stepped.sim, limit, max_events=max_events)
        assert inlined.fired == stepped.fired
        assert inlined.state() == stepped.state()
        assert inlined.live_scan() == len(inlined.sim._queue)
        assert inlined.sim.pending_events == len(inlined.sim._queue)


@settings(max_examples=100, deadline=None)
@given(setup=st.lists(op, max_size=30), reactions=st.lists(op, max_size=40))
def test_drained_run_leaves_an_empty_queue(setup, reactions):
    world = World(reactions)
    for args in setup:
        world.apply(*args)
    world.sim.run_until(100.0)
    assert len(world.sim._queue) == 0 == world.live_scan()
    assert world.sim.now == 100.0


def test_cancel_during_run_compacts_in_place():
    """Callbacks that cancel enough events trigger a compaction in the
    middle of ``run_until``; the loop must keep popping the live heap."""
    sim = Simulator()
    fired = []
    handles = [sim.schedule(1.0 + i, fired.append, i) for i in range(40)]

    def cancel_most():
        for handle in handles[1:30]:
            handle.cancel()

    sim.post(0.5, cancel_most)
    heap = sim._queue._heap
    assert sim.run_until(100.0) == 12
    assert sim._queue._heap is heap
    assert fired == [0] + list(range(30, 40))
    assert len(sim._queue) == 0 and sim._queue._dead == 0

"""Timer churn: heap compaction, cancel bookkeeping, deadline-bumping
timers, FIFO-floor pruning, and tap routing edges.

The headline regression test models the timer-churn leak: a
long-lived TCP flow re-arms its retransmission timer on every advancing
ACK (cancel + re-push).  A queue without compaction strands one dead
event per cycle, so its heap grows without bound over a fleet-length
run; the compacting queue keeps the heap within a small constant factor
of the live count, and pops survivors in (time, push order).
End-to-end byte identity of the kernel is pinned against the digest the
removed legacy (non-compacting) kernel produced on the same scenario.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Host, Network, TapHost
from repro.net.packet import Packet, Protocol
from repro.sim.events import EventQueue
from repro.sim.process import DeadlineTimer
from repro.sim.random import RngHub
from tests.equivalence import guard_digest


def _churn(queue, cycles, rearm_gap=1.0, rto=30.0):
    """A long-lived flow's RTO pattern: each segment's ACK cancels the
    pending retransmission and re-arms it ``rto`` ahead.  Returns the
    last (still-armed) handle."""
    handle = queue.push(rto, lambda: None)
    for i in range(1, cycles + 1):
        handle.cancel()
        handle = queue.push(i * rearm_gap + rto, lambda: None)
    return handle


class TestHeapStaysBounded:
    CYCLES = 5000

    def test_rearming_flow_keeps_heap_small(self):
        queue = EventQueue()
        _churn(queue, self.CYCLES)
        assert len(queue) == 1  # only the last re-arm is live
        # The regression bar: dead entries must not accumulate.  The
        # compaction threshold allows a handful, never thousands.
        assert len(queue._heap) <= 16

    def test_pop_order_unchanged_by_compaction(self):
        # Interleave churn with unrelated events: compaction must leave
        # the survivors popping in (time, push order).  The 6.0 entry
        # ties with the final re-arm (200 * 0.01 + 4.0), pushed later.
        queue = EventQueue()
        times = [7.0, 3.0, 11.0, 6.0, 2.0, 13.0, 0.5, 3.0]
        for t in times:
            queue.push(t, lambda: None)
        last = _churn(queue, 200, rearm_gap=0.01, rto=4.0)
        assert len(queue._heap) < 100  # compaction ran
        survivors = [(t, seq) for seq, t in enumerate(times)]
        survivors.append((last.time, queue._next_seq - 1))  # final push
        order = []
        while (event := queue.pop()) is not None:
            order.append((event.time, event.sequence))
        assert order == sorted(survivors)
        assert order[4:6] == [(6.0, 3), (6.0, queue._next_seq - 1)]

    def test_compaction_spares_handle_free_posts(self):
        queue = EventQueue()
        for i in range(20):
            queue.post(float(i), lambda: None)
        _churn(queue, 100)
        # All 20 posts plus the one live timer survive compaction.
        assert len(queue) == 21
        popped = [queue.pop_entry() for _ in range(21)]
        assert [entry[0] for entry in popped[:20]] == [float(i) for i in range(20)]


class TestCancelBookkeeping:
    def test_cancel_after_pop_is_a_no_op(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop().time == 1.0
        handle.cancel()  # already fired: must not decrement again
        assert len(queue) == 1
        assert queue.pop().time == 2.0
        assert len(queue) == 0

    def test_cancel_after_compact_is_a_no_op(self):
        queue = EventQueue()
        keeper = queue.push(100.0, lambda: None)
        doomed = [queue.push(float(i), lambda: None) for i in range(30)]
        for handle in doomed:
            handle.cancel()  # crosses the compaction threshold (twice)
        assert len(queue._heap) < 10  # compaction ran; 30 dead entries gone
        snapshot = (queue._live, queue._dead, len(queue._heap))
        for handle in doomed:
            handle.cancel()  # re-cancel events compaction already removed
        assert (queue._live, queue._dead, len(queue._heap)) == snapshot
        assert len(queue) == 1
        assert not keeper.cancelled
        assert queue.pop().time == 100.0
        assert queue.pop() is None

    def test_double_cancel_while_queued(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert len(queue) == 1
        assert queue.pop().time == 2.0

    def test_peek_prunes_dead_head_exactly_once(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0
        first.cancel()  # head already pruned by peek
        assert len(queue) == 1


class TestDeadlineTimer:
    def test_fires_exactly_at_deadline(self, sim):
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.schedule_in(5.0)
        sim.run()
        assert fired == [5.0]
        assert not timer.armed

    def test_bumping_later_adds_no_heap_entries(self, sim):
        timer = DeadlineTimer(sim, lambda: None)
        timer.schedule_in(30.0)
        baseline = len(sim._queue._heap)
        for i in range(1, 500):
            sim._clock._now = float(i)  # segments arriving, RTO pushed out
            timer.schedule_in(30.0)
        # The whole churn storm rides the single outstanding wakeup.
        assert len(sim._queue._heap) == baseline

    def test_bumped_deadline_fires_at_new_time_only(self, sim):
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.schedule_at(10.0)
        sim.schedule(5.0, lambda: timer.schedule_at(20.0))
        sim.run()
        assert fired == [20.0]

    def test_cancel_turns_pending_wakeup_into_no_op(self, sim):
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.schedule_at(10.0)
        sim.schedule(5.0, timer.cancel)
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_rescheduling_earlier_fires_earlier(self, sim):
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.schedule_at(50.0)
        sim.schedule(1.0, lambda: timer.schedule_at(8.0))
        sim.run()
        assert fired == [8.0]

    def test_cancel_then_rearm_fires_once(self, sim):
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.schedule_at(10.0)
        sim.schedule(2.0, timer.cancel)
        sim.schedule(3.0, lambda: timer.schedule_at(12.0))
        sim.run()
        assert fired == [12.0]

    def test_periodic_rearm_from_callback(self, sim):
        fired = []

        def beat():
            fired.append(sim.now)
            if len(fired) < 4:
                timer.schedule_in(30.0)

        timer = DeadlineTimer(sim, beat)
        timer.schedule_in(30.0)
        sim.run()
        assert fired == [30.0, 60.0, 90.0, 120.0]


class TestJitterBufferEquivalence:
    def test_block_draws_match_scalar_draws_bitwise(self):
        # Network.send buffers jitter draws 256 at a time; golden-trace
        # identity relies on random(n) yielding the exact doubles n
        # scalar random() calls would.
        block = np.random.default_rng(1234).random(256).tolist()
        scalar_rng = np.random.default_rng(1234)
        scalars = [float(scalar_rng.random()) for _ in range(256)]
        assert block == scalars
        assert all(isinstance(value, float) for value in block)


class TestDeliveryFloorPruning:
    PATHS = 200  # distinct (src_ip, dst_ip, protocol) paths over the run

    def _flood(self, network, sim):
        """A fleet of devices talking to one sink, in bursts with idle
        time in between — each device is a new (src, dst, protocol)
        floor entry, and every drain makes the previous burst's floors
        stale.  Without pruning the dict keeps all of them forever."""
        sink = Host("sink", IPv4Address("10.0.1.1"))
        network.attach(sink)
        sink.register_udp_any(lambda packet: None)
        for index in range(self.PATHS):
            device = Host(f"d{index}", IPv4Address(f"10.0.0.{1 + index}"))
            network.attach(device)
            device.send(Packet(src=Endpoint(device.ip, 1),
                               dst=Endpoint(sink.ip, 9),
                               protocol=Protocol.UDP, payload_len=1))
            if index % 40 == 39:
                sim.run()  # drain the burst: time passes every floor
        sim.run()
        return network

    def test_floors_do_not_accumulate_per_path(self, sim):
        network = Network(sim, RngHub(5))
        self._flood(network, sim)
        # 200 distinct paths were used; stale floors must have been
        # pruned instead of retained one-per-path forever.
        assert len(network._last_delivery) < self.PATHS / 2

    def test_path_cache_is_bounded_under_ephemeral_ports(self, sim):
        # The routing cache is keyed by (origin, src, dst) endpoints;
        # ephemeral ports make that key space unbounded, so the cache
        # must wipe itself rather than grow one entry per flow.
        network = Network(sim, RngHub(9))
        a = Host("a", IPv4Address("192.168.1.10"))
        b = Host("b", IPv4Address("192.168.1.11"))
        network.attach(a)
        network.attach(b)
        b.register_udp_any(lambda packet: None)
        for port in range(1024, 1024 + 5000):
            a.send(Packet(src=Endpoint(a.ip, port), dst=Endpoint(b.ip, 9),
                          protocol=Protocol.UDP, payload_len=1))
            if port % 500 == 0:
                sim.run()
        sim.run()
        assert len(network._path_cache) <= 4096

    def test_fifo_still_holds_across_prunes(self, sim):
        network = Network(sim, RngHub(7))
        network._prune_at = 1  # prune on every send
        a = Host("a", IPv4Address("192.168.1.10"))
        b = Host("b", IPv4Address("192.168.1.11"))
        network.attach(a)
        network.attach(b)
        order = []
        b.register_udp_handler(9, lambda p: order.append(p.payload_len))
        for size in range(1, 40):
            a.send(Packet(src=Endpoint(a.ip, 1), dst=Endpoint(b.ip, 9),
                          protocol=Protocol.UDP, payload_len=size))
        sim.run()
        assert order == list(range(1, 40))


class TestTapRoutingEdges:
    def _fabric(self, sim):
        network = Network(sim, RngHub(3))
        speaker = Host("speaker", IPv4Address("192.168.1.200"))
        cloud = Host("cloud", IPv4Address("54.1.1.1"))
        tap = TapHost("tap", IPv4Address("192.168.1.50"))
        for host in (speaker, cloud, tap):
            network.attach(host)
        return network, speaker, cloud, tap

    def test_tap_reinjection_reaches_true_destination(self, sim):
        network, speaker, cloud, tap = self._fabric(sim)
        network.install_tap(speaker.ip, tap)
        received = []
        cloud.register_udp_handler(9, received.append)
        held = []

        def hold_then_release(packet):
            held.append(packet)
            sim.post(0.5, tap.bridge, packet)  # re-inject later

        tap.intercept = hold_then_release  # type: ignore[assignment]
        speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                            dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=3))
        sim.run()
        # Intercepted exactly once; the re-injected copy bypasses the
        # tap (origin is the tap) and lands on the real destination.
        assert len(held) == 1
        assert [p.payload_len for p in received] == [3]

    def test_remove_tap_with_packet_in_flight(self, sim):
        network, speaker, cloud, tap = self._fabric(sim)
        network.install_tap(speaker.ip, tap)
        intercepted, received = [], []
        tap.intercept = intercepted.append  # type: ignore[assignment]
        cloud.register_udp_handler(9, received.append)
        # Packet 1 departs while the tap is installed...
        speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                            dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=1))
        # ...the tap is unplugged before it arrives...
        network.remove_tap(speaker.ip)
        # ...and packet 2 departs after removal.
        speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                            dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=2))
        sim.run()
        # Routing was resolved at send time: the in-flight packet still
        # lands on the tap, the later one goes direct.
        assert [p.payload_len for p in intercepted] == [1]
        assert [p.payload_len for p in received] == [2]

    def test_reinstalled_tap_invalidates_cached_paths(self, sim):
        network, speaker, cloud, tap = self._fabric(sim)
        received, intercepted = [], []
        cloud.register_udp_handler(9, received.append)
        tap.intercept = intercepted.append  # type: ignore[assignment]

        def shoot(size):
            speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                                dst=Endpoint(cloud.ip, 9),
                                protocol=Protocol.UDP, payload_len=size))
            sim.run()

        shoot(1)  # no tap: direct (and the path is now cached)
        network.install_tap(speaker.ip, tap)
        shoot(2)  # cache must have been invalidated by install_tap
        network.remove_tap(speaker.ip)
        shoot(3)  # and again by remove_tap
        assert [p.payload_len for p in received] == [1, 3]
        assert [p.payload_len for p in intercepted] == [2]

    def test_udp_any_shadows_per_port_handlers(self, sim):
        network, speaker, cloud, tap = self._fabric(sim)
        per_port, catch_all = [], []
        cloud.register_udp_handler(9, per_port.append)
        speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                            dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=1))
        sim.run()
        cloud.register_udp_any(catch_all.append)
        for port in (9, 10):  # registered port and an unregistered one
            speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                                dst=Endpoint(cloud.ip, port),
                                protocol=Protocol.UDP, payload_len=port))
        sim.run()
        # Once the catch-all is installed it takes every UDP packet,
        # including ones a per-port handler would otherwise claim.
        assert [p.payload_len for p in per_port] == [1]
        assert sorted(p.payload_len for p in catch_all) == [9, 10]


class TestKernelByteIdentity:
    # SHA-256 (tests.equivalence.guard_digest) of the guard event stream
    # and final sim clock that the legacy kernel — plain heap, no
    # compaction, no floor pruning — produced for the scenario below.
    # It had 21 command events and ended at t = 2409.551141306251.
    LEGACY_KERNEL_DIGEST = (
        "12dc4170d26c9c64c1f87acce62913c55d6a7366ebe41c0849853ec0d73f9332")

    @pytest.mark.slow
    def test_guard_event_stream_identical_across_kernels(self):
        # The kernel invariant, end to end: the same scenario seed must
        # produce the same guard decisions, at the same simulated times,
        # on the optimized kernel as on the legacy one.
        from repro.experiments.scenarios import build_scenario
        from repro.experiments.workload import SevenDayWorkload

        scenario = build_scenario("house", "echo", deployment=0, seed=11,
                                  owner_count=2, tracing=False)
        SevenDayWorkload(scenario, episode_gap=None).run(6, 4)
        scenario.speaker.settle_all()
        assert len(scenario.guard.log.event_stream()) == 21
        assert guard_digest(scenario) == self.LEGACY_KERNEL_DIGEST

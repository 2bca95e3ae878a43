"""Bit-for-bit equivalence of the vectorized RSSI substrate, plus the
O(1) event-count and counter-lifecycle regressions that rode along.

The batched radio APIs (``mean_rssi_many``, ``sample_rssi_batch``,
``average_rssi_grid``, ``walls_crossed_many``) are pure optimizations:
every test here compares them against the scalar reference paths with
``==`` on raw float64 values — no tolerances — across all three
testbeds and several seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.events import GuardLog
from repro.core.recognition import SpeakerProfile, TrafficRecognition
from repro.net.addresses import IPv4Address, endpoint
from repro.net.link import Host, Network
from repro.net.packet import Packet, Protocol
from repro.net.proxy import ProxiedFlow, TransparentProxy
from repro.radio.propagation import RSSI_FLOOR, PropagationModel
from repro.radio.testbeds import testbed_by_name as build_testbed
from repro.sim.events import EventQueue
from repro.sim.random import RngHub
from repro.sim.simulator import Simulator

# Exhaustive bit-for-bit sweeps over testbeds x seeds: nightly material.
pytestmark = pytest.mark.slow

TESTBEDS = ("house", "apartment", "office")
SEEDS = (3, 7, 11)


def grid_points(testbed):
    return [mp.point for _, mp in sorted(testbed.plan.points.items())]


# -- deterministic kernel ---------------------------------------------------
class TestMeanRssiEquivalence:
    @pytest.mark.parametrize("name", TESTBEDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_memoized_equals_uncached(self, name, seed):
        testbed = build_testbed(name)
        model = PropagationModel(testbed.plan, seed=seed)
        tx = testbed.speaker_point(0)
        for rx in grid_points(testbed):
            first = model.mean_rssi(tx, rx)
            assert first == model.mean_rssi_uncached(tx, rx)
            assert first == model.mean_rssi(tx, rx)  # memo hit

    @pytest.mark.parametrize("name", TESTBEDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_many_equals_scalar(self, name, seed):
        testbed = build_testbed(name)
        model = PropagationModel(testbed.plan, seed=seed)
        tx = testbed.speaker_point(0)
        points = grid_points(testbed)
        batched = model.mean_rssi_many(tx, points)
        fresh = PropagationModel(testbed.plan, seed=seed)
        scalar = [fresh.mean_rssi(tx, rx) for rx in points]
        assert [float(v) for v in batched] == scalar

    def test_many_mixes_cached_and_missing(self):
        testbed = build_testbed("house")
        model = PropagationModel(testbed.plan, seed=5)
        tx = testbed.speaker_point(0)
        points = grid_points(testbed)
        warm = [model.mean_rssi(tx, rx) for rx in points[::3]]  # every third
        batched = model.mean_rssi_many(tx, points)
        assert [float(v) for v in batched[::3]] == warm
        fresh = PropagationModel(testbed.plan, seed=5)
        assert [float(v) for v in batched] == [
            fresh.mean_rssi(tx, rx) for rx in points
        ]

    def test_caches_invalidate_when_plan_changes(self):
        testbed = build_testbed("house")
        plan = testbed.plan
        model = PropagationModel(plan, seed=5)
        tx = testbed.speaker_point(0)
        rx = grid_points(testbed)[-1]
        before = model.mean_rssi(tx, rx)
        version = plan.version
        wall = plan.add_wall(
            ((tx.x + rx.x) / 2 - 5.0, (tx.y + rx.y) / 2),
            ((tx.x + rx.x) / 2 + 5.0, (tx.y + rx.y) / 2),
            floor=0,
        )
        try:
            assert plan.version > version
            after = model.mean_rssi(tx, rx)
            assert after == model.mean_rssi_uncached(tx, rx)
            # The new wall may or may not cross this exact path, but a
            # stale memo returning ``before`` without recomputing would
            # be indistinguishable — so check the crossing count too.
            assert plan.walls_crossed(tx, rx) == plan.walls_crossed_scalar(tx, rx)
            assert isinstance(after, float) and after >= RSSI_FLOOR
        finally:
            plan.walls.remove(wall)
            plan._invalidate_geometry()
        assert model.mean_rssi(tx, rx) == before


class TestWallCrossingEquivalence:
    @pytest.mark.parametrize("name", TESTBEDS)
    def test_many_equals_scalar_loop(self, name):
        testbed = build_testbed(name)
        plan = testbed.plan
        tx = testbed.speaker_point(0)
        points = grid_points(testbed)
        counts = plan.walls_crossed_many(tx, points)
        assert [int(c) for c in counts] == [
            plan.walls_crossed_scalar(tx, rx) for rx in points
        ]
        # The memoized scalar entry point agrees and now hits the cache.
        assert [plan.walls_crossed(tx, rx) for rx in points] == [
            int(c) for c in counts
        ]

    @pytest.mark.parametrize("name", TESTBEDS)
    def test_cross_floor_and_door_paths(self, name):
        testbed = build_testbed(name)
        plan = testbed.plan
        points = grid_points(testbed)
        # Every pair among a spread of grid points, both directions.
        subset = points[:: max(1, len(points) // 8)]
        for a in subset:
            for b in subset:
                assert plan.walls_crossed_scalar(a, b) == int(
                    plan.wall_array.crossing_mask(a, b).sum()
                )


# -- sampled kernel ---------------------------------------------------------
class TestSampledEquivalence:
    @pytest.mark.parametrize("name", TESTBEDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_batch_matches_scalar_stream(self, name, seed):
        testbed = build_testbed(name)
        model = PropagationModel(testbed.plan, seed=seed)
        tx = testbed.speaker_point(0)
        rx = grid_points(testbed)[len(grid_points(testbed)) // 2]
        blocked = [True, True, False, True, False, False, False, True, False]
        scalar_rng = np.random.default_rng(seed + 100)
        scalar = [
            model.sample_rssi(tx, rx, scalar_rng, body_blocked=flag)
            for flag in blocked
        ]
        batch_rng = np.random.default_rng(seed + 100)
        batch = model.sample_rssi_batch(tx, rx, batch_rng, blocked)
        assert scalar == [float(v) for v in batch]
        # Both consumed the same stretch of the bitstream.
        assert scalar_rng.integers(1 << 30) == batch_rng.integers(1 << 30)

    def test_sample_batch_empty(self):
        testbed = build_testbed("house")
        model = PropagationModel(testbed.plan, seed=1)
        tx = testbed.speaker_point(0)
        out = model.sample_rssi_batch(tx, tx, np.random.default_rng(0), [])
        assert out.shape == (0,)

    @pytest.mark.parametrize("name", TESTBEDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_average_batch_matches_scalar(self, name, seed):
        # A one-location grid is the batched average of one point, each
        # from a fresh generator (the grid loop below shares one).
        testbed = build_testbed(name)
        model = PropagationModel(testbed.plan, seed=seed)
        tx = testbed.speaker_point(0)
        for rx in grid_points(testbed)[::7]:
            scalar = model.average_rssi(tx, rx, np.random.default_rng(seed))
            batch = model.average_rssi_grid(tx, [rx], np.random.default_rng(seed))
            assert [scalar] == batch.tolist()

    @pytest.mark.parametrize("name", TESTBEDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_average_grid_matches_scalar_loop(self, name, seed):
        testbed = build_testbed(name)
        tx = testbed.speaker_point(0)
        points = grid_points(testbed)
        scalar_model = PropagationModel(testbed.plan, seed=seed)
        scalar_rng = np.random.default_rng(seed + 1)
        scalar = [
            scalar_model.average_rssi(tx, rx, scalar_rng) for rx in points
        ]
        grid_model = PropagationModel(testbed.plan, seed=seed)
        grid = grid_model.average_rssi_grid(
            tx, points, np.random.default_rng(seed + 1)
        )
        assert scalar == [float(v) for v in grid]

    def test_average_rejects_bad_sample_counts(self):
        testbed = build_testbed("house")
        model = PropagationModel(testbed.plan, seed=1)
        tx = testbed.speaker_point(0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            model.average_rssi(tx, tx, rng, samples=0)
        with pytest.raises(ValueError):
            model.average_rssi_grid(tx, [tx], rng, samples=0)


# -- event queue: O(1) live count ------------------------------------------
class TestEventQueueLiveCount:
    def test_len_tracks_push_pop_cancel(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(10)]
        assert len(queue) == 10
        handles[3].cancel()
        handles[7].cancel()
        assert len(queue) == 8
        handles[3].cancel()  # idempotent
        assert len(queue) == 8
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            popped.append(event.time)
        assert len(popped) == 8
        assert 3.0 not in popped and 7.0 not in popped
        assert len(queue) == 0

    def test_cancel_after_pop_does_not_double_count(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop().time == 1.0
        first.cancel()  # already left the heap: must not decrement again
        assert len(queue) == 1
        assert queue.pop().time == 2.0
        assert len(queue) == 0

    def test_len_matches_heap_scan(self):
        rng = np.random.default_rng(42)
        queue = EventQueue()
        handles = []
        for step in range(500):
            action = rng.integers(3)
            if action == 0 or not handles:
                handles.append(queue.push(float(rng.integers(100)), lambda: None))
            elif action == 1:
                handles[int(rng.integers(len(handles)))].cancel()
            else:
                queue.pop()
            # Entries are (time, seq, event) tuples; handle-free post()
            # entries carry None and are always live.
            live_scan = sum(
                1
                for entry in queue._heap
                if entry[2] is None or not entry[2].cancelled
            )
            assert len(queue) == live_scan

    def test_pending_events_is_constant_time(self):
        sim = Simulator()
        for i in range(5000):
            sim.schedule(float(i), lambda: None)
        # The count must come from the incremental counter, not a heap
        # scan: reading it must not touch the heap at all.
        heap = sim._queue._heap

        class Exploding(list):
            def __iter__(self):  # pragma: no cover - failure path
                raise AssertionError("pending_events scanned the heap")

        sim._queue._heap = Exploding(heap)
        try:
            assert sim.pending_events == 5000
        finally:
            sim._queue._heap = heap


# -- counter lifecycle -------------------------------------------------------
class TestCounterLifecycle:
    def test_packet_numbers_reset(self):
        """Packet numbering belongs to the network: every fresh one
        numbers from 1, whatever other networks sent before it."""
        sim = Simulator()
        for seed in (1, 2):
            network = Network(sim, RngHub(seed))
            a, b = (Host(name, IPv4Address(ip)) for name, ip in
                    (("a", "192.168.1.10"), ("b", "192.168.1.11")))
            network.attach(a)
            network.attach(b)
            packets = [Packet(src=endpoint("192.168.1.10", 1),
                              dst=endpoint("192.168.1.11", 9),
                              protocol=Protocol.UDP, payload_len=1)
                       for _ in range(3)]
            for packet in packets:
                a.send(packet)
            assert [p.number for p in packets] == [1, 2, 3]

    def test_window_ids_are_per_instance(self):
        def fresh_recognition():
            sim = Simulator()
            recognition = TrafficRecognition(sim, GuardLog())
            recognition.add_speaker(IPv4Address("192.168.1.200"), SpeakerProfile.ECHO)
            state = recognition.speaker_state(IPv4Address("192.168.1.200"))
            state.avs_ip = IPv4Address("54.1.1.1")
            state.avs_ip_source = "dns"
            return sim, recognition

        def first_window_id(sim, recognition):
            flow = ProxiedFlow(
                flow_id=1,
                protocol=Protocol.TCP,
                client=endpoint("192.168.1.200", 50000),
                server=endpoint("54.1.1.1", 443),
            )
            packet = Packet(
                src=endpoint("192.168.1.200", 50000),
                dst=endpoint("54.1.1.1", 443),
                protocol=Protocol.TCP,
                payload_len=277,
            )
            recognition.observe(flow, packet)
            return recognition.log.events[-1].window_id

        assert first_window_id(*fresh_recognition()) == 1
        # A second engine in the same process starts from 1 again.
        assert first_window_id(*fresh_recognition()) == 1

    def test_closed_flows_are_pruned(self):
        # Recognizer state lives on the flow, and the proxy drops both
        # when it finishes the flow.
        sim = Simulator()
        recognition = TrafficRecognition(sim, GuardLog())
        recognition.add_speaker(IPv4Address("192.168.1.200"), SpeakerProfile.ECHO)
        state = recognition.speaker_state(IPv4Address("192.168.1.200"))
        state.avs_ip = IPv4Address("54.1.1.1")
        state.avs_ip_source = "dns"
        proxy = TransparentProxy("guard", IPv4Address("192.168.1.50"))
        flows = []
        for port in range(50000, 50020):
            flow = proxy._open_flow(Protocol.TCP, endpoint("192.168.1.200", port),
                                    endpoint("54.1.1.1", 443))
            packet = Packet(
                src=flow.client, dst=flow.server,
                protocol=Protocol.TCP, payload_len=55,
            )
            recognition.observe(flow, packet)
            flows.append(flow)

        def tracked():
            return sum(flow.policy_state is not None
                       for flow in proxy.open_flows.values())

        assert tracked() == len(proxy.open_flows) == 20
        for flow in flows[:15]:
            proxy._finish_flow(flow, "fin")
        assert tracked() == len(proxy.open_flows) == 5
        assert all(flow.policy_state is None for flow in flows[:15])
        proxy._finish_flow(flows[0], "fin")  # idempotent for a closed flow
        assert tracked() == len(proxy.open_flows) == 5


# -- the figure-8/9 pipeline stays deterministic ------------------------------
class TestRssiMapPipeline:
    def test_rssi_map_unchanged_by_batching(self):
        # The figure pipeline uses average_rssi_grid; replaying the
        # same stream through the scalar API must give the same values.
        from repro.experiments.rssi_maps import SAMPLES_PER_LOCATION, run_rssi_map
        from repro.home.environment import HomeEnvironment

        result = run_rssi_map("apartment", 0, seed=8)
        testbed = build_testbed("apartment")
        env = HomeEnvironment(testbed, deployment=0, seed=8)
        rng = env.rng.stream("rssi-map")
        scalar = {
            number: env.model.average_rssi(
                env.speaker_beacon.position, mp.point, rng,
                samples=SAMPLES_PER_LOCATION,
            )
            for number, mp in sorted(testbed.plan.points.items())
        }
        for reading in result.readings:
            assert reading.rssi == scalar[reading.number]

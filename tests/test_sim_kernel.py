"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.5).now == 5.5

    def test_rejects_negative_start(self):
        with pytest.raises(SimulationError):
            SimClock(-1.0)

    def test_advances_forward(self):
        clock = SimClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_rejects_time_reversal(self):
        clock = SimClock(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)

    def test_advance_to_same_time_is_ok(self):
        clock = SimClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, fired.append, ("c",))
        queue.push(1.0, fired.append, ("a",))
        queue.push(2.0, fired.append, ("b",))
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.push(1.0, fired.append, (name,))
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert fired == ["a", "b", "c"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        handle = queue.push(1.0, fired.append, ("a",))
        queue.push(2.0, fired.append, ("b",))
        handle.cancel()
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert fired == ["b"]

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        handle.cancel()
        assert len(queue) == 1

    def test_peek_time_skips_cancelled_head(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        handle.cancel()
        assert queue.peek_time() == 5.0

    def test_rejects_non_callable(self):
        with pytest.raises(SimulationError):
            EventQueue().push(1.0, "not-callable")  # type: ignore[arg-type]


class TestSimulator:
    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until_stops_at_deadline(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run_until(5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_advances_clock_without_events(self, sim):
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_events_can_schedule_events(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_max_events_bounds_run(self, sim):
        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        fired = sim.run(max_events=25)
        assert fired == 25

    def test_run_for_relative(self, sim):
        sim.run_until(3.0)
        sim.run_for(2.0)
        assert sim.now == 5.0

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False


class TestRngHub:
    def test_same_name_same_stream_object(self, hub):
        assert hub.stream("a") is hub.stream("a")

    def test_different_names_independent(self, hub):
        a = hub.stream("a").random(5)
        b = hub.stream("b").random(5)
        assert list(a) != list(b)

    def test_reproducible_across_hubs(self):
        from repro.sim.random import RngHub
        one = RngHub(7).stream("x").random(5)
        two = RngHub(7).stream("x").random(5)
        assert list(one) == list(two)

    def test_forks_are_independent(self, hub):
        child_a = hub.fork("day1").stream("x").random(3)
        child_b = hub.fork("day2").stream("x").random(3)
        assert list(child_a) != list(child_b)

    def test_bounded_lognormal_respects_bounds(self, rng):
        from repro.sim.random import bounded_lognormal
        values = [bounded_lognormal(rng, 1.0, 0.8, 0.2, 2.5) for _ in range(500)]
        assert min(values) >= 0.2
        assert max(values) <= 2.5

    def test_bounded_lognormal_mean_roughly_right(self, rng):
        from repro.sim.random import bounded_lognormal
        values = [bounded_lognormal(rng, 1.0, 0.3, 0.01, 10.0) for _ in range(4000)]
        assert abs(sum(values) / len(values) - 1.0) < 0.05

    def test_bounded_lognormal_rejects_bad_args(self, rng):
        from repro.sim.random import bounded_lognormal
        with pytest.raises(ValueError):
            bounded_lognormal(rng, -1.0, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            bounded_lognormal(rng, 1.0, 0.5, 2.0, 1.0)

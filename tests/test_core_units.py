"""Unit tests for the guard's sub-modules: config, registry, decision,
floor classifier, threshold calibration, recognition classifier."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.config import VoiceGuardConfig
from repro.core.decision import (
    DecisionContext,
    DecisionModule,
    RssiDecisionMethod,
    Verdict,
)
from repro.core.events import CommandEvent, GuardLog, TrafficClass
from repro.core.floor import FloorLevelTracker, TraceClassifier, TraceFeatures
from repro.core.recognition import classify_echo_lengths, finalize_echo_lengths
from repro.core.registry import DeviceRegistry
from repro.core.threshold import ThresholdCalibrator, perimeter_route
from repro.errors import ConfigError, RegistrationError
from repro.home.environment import HomeEnvironment
from repro.radio.geometry import Point
from repro.radio.testbeds import apartment_testbed, house_testbed


class TestConfig:
    def test_defaults_valid(self):
        config = VoiceGuardConfig()
        assert config.push_retries == 0
        assert config.proximity_cache_ttl == 0.0

    def test_knob_set_is_pinned(self):
        """Every guard knob is one a caller sets; a new one is a review
        decision, not a side effect."""
        assert [spec.name for spec in fields(VoiceGuardConfig)] == [
            "push_retries", "proximity_cache_ttl",
            "max_concurrent_queries", "decision_batching", "held_byte_budget",
        ]

    @pytest.mark.parametrize("kwargs", [
        {"push_retries": -1},
        {"proximity_cache_ttl": -0.5},
        {"held_byte_budget": float("inf")},  # a float in an int field
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            VoiceGuardConfig(**kwargs)

    @pytest.mark.parametrize("name", ["proximity_cache_ttl"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            VoiceGuardConfig(**{name: value})


class TestEchoClassifier:
    def test_marker_decides_command_early(self):
        assert classify_echo_lengths([277, 138]) is TrafficClass.COMMAND
        assert classify_echo_lengths([75]) is TrafficClass.COMMAND

    def test_marker_beyond_first_five_ignored(self):
        lengths = [300, 131, 113, 121, 96, 138, 50]
        assert classify_echo_lengths(lengths) is not TrafficClass.COMMAND

    def test_fixed_pattern_decides_command(self):
        for pattern in ((131, 277, 131, 113), (131, 113, 113, 113), (131, 121, 277, 131)):
            assert classify_echo_lengths([277, *pattern]) is TrafficClass.COMMAND

    def test_fixed_pattern_needs_first_packet_in_range(self):
        assert classify_echo_lengths([100, 131, 277, 131, 113, 50, 50]) is TrafficClass.UNKNOWN

    def test_pair_decides_response(self):
        assert classify_echo_lengths([55, 61, 77, 33]) is TrafficClass.RESPONSE

    def test_pair_as_sixth_and_seventh(self):
        lengths = [55, 61, 89, 97, 105, 77, 33]
        assert classify_echo_lengths(lengths) is TrafficClass.RESPONSE

    def test_pair_must_be_adjacent(self):
        assert classify_echo_lengths([77, 55, 33, 61, 89, 97, 105]) is TrafficClass.UNKNOWN

    def test_undecided_until_enough_packets(self):
        assert classify_echo_lengths([300, 131]) is None

    def test_unknown_after_seven(self):
        assert classify_echo_lengths([55, 61, 89, 97, 105, 126, 55]) is TrafficClass.UNKNOWN

    def test_finalize_defaults_to_unknown(self):
        assert finalize_echo_lengths([300]) is TrafficClass.UNKNOWN
        assert finalize_echo_lengths([55, 77, 33]) is TrafficClass.RESPONSE


class TestRegistry:
    def test_register_and_lookup(self, sim):
        registry = DeviceRegistry()
        device = _FakeDevice("phone")
        entry = registry.register(device, threshold=-8.0)
        assert entry.threshold == -8.0
        assert "phone" in registry
        assert len(registry) == 1

    def test_unapproved_registration_rejected(self):
        registry = DeviceRegistry()
        with pytest.raises(RegistrationError):
            registry.register(_FakeDevice("attacker"), -8.0, approved_by_owner=False)

    def test_duplicate_rejected(self):
        registry = DeviceRegistry()
        registry.register(_FakeDevice("phone"), -8.0)
        with pytest.raises(RegistrationError):
            registry.register(_FakeDevice("phone"), -9.0)

    def test_unregister(self):
        registry = DeviceRegistry()
        registry.register(_FakeDevice("phone"), -8.0)
        registry.unregister("phone")
        assert "phone" not in registry
        with pytest.raises(RegistrationError):
            registry.unregister("phone")


class _FakeDevice:
    def __init__(self, name):
        self.name = name


class TestDecisionMethod:
    @pytest.fixture
    def world(self):
        env = HomeEnvironment(apartment_testbed(), deployment=0, seed=9)
        person = env.add_person("alice", Point(2, 4, 0))
        phone = env.add_smartphone("phone", person)
        registry = DeviceRegistry()
        registry.register(phone, threshold=-8.0)
        method = RssiDecisionMethod(env.sim, env.push, registry, env.speaker_beacon)
        return env, person, phone, registry, method

    def _decide(self, env, method):
        results = []
        method.decide(
            DecisionContext(window_id=1, speaker_ip="x", requested_at=env.sim.now),
            results.append,
        )
        env.sim.run_for(8.0)
        assert results
        return results[0]

    def test_near_owner_is_legitimate(self, world):
        env, person, phone, registry, method = world
        person.teleport(Point(2.2, 4.2, 0))
        result = self._decide(env, method)
        assert result.verdict is Verdict.LEGITIMATE
        assert result.satisfied_by == "phone"

    def test_far_owner_is_malicious(self, world):
        env, person, phone, registry, method = world
        person.teleport(Point(9.0, 1.0, 0))  # bath, behind walls
        result = self._decide(env, method)
        assert result.verdict is Verdict.MALICIOUS
        assert result.reports

    def test_no_devices_is_malicious(self, world):
        env, person, phone, registry, method = world
        registry.unregister("phone")
        result = self._decide(env, method)
        assert result.verdict is Verdict.MALICIOUS

    def test_multi_user_or_rule(self, world):
        env, person, phone, registry, method = world
        person.teleport(Point(9.0, 1.0, 0))  # first owner away
        other = env.add_person("bob", Point(2.0, 4.2, 0))  # second near
        registry.register(env.add_smartphone("phone2", other), threshold=-8.0)
        result = self._decide(env, method)
        assert result.verdict is Verdict.LEGITIMATE
        assert result.satisfied_by == "phone2"

    def test_floor_veto_blocks_despite_rssi(self, world):
        env, person, phone, registry, method = world
        person.teleport(Point(2.2, 4.2, 0))
        method.floor_check = lambda name: False
        result = self._decide(env, method)
        assert result.verdict is Verdict.MALICIOUS
        assert "phone" in result.floor_vetoed

    def test_decision_module_counts(self):
        # The module keeps no count of its own: it hands every query to
        # the active method, whose registry counters do the counting.
        calls = []

        class _Recording:
            def decide(self, context, callback):
                calls.append((context, callback))

        def callback(result):
            pass

        module = DecisionModule(_Recording())
        context = DecisionContext(window_id=1, speaker_ip="x", requested_at=0.0)
        module.decide(context, callback)
        assert calls == [(context, callback)]


class TestTraceClassifier:
    def _features(self, slope, intercept, n=10, spread=0.05):
        rng = np.random.default_rng(1)
        return [
            TraceFeatures(slope + rng.normal(0, spread), intercept + rng.normal(0, spread * 10))
            for _ in range(n)
        ]

    @pytest.fixture
    def trained(self):
        classifier = TraceClassifier()
        classifier.fit({
            "up": self._features(-1.7, -10),
            "down": self._features(2.1, -20),
            "route1": self._features(0.0, -3),
            "route2": self._features(-1.6, -12),
            "route3": self._features(1.6, -18),
        })
        return classifier

    def test_flat_slope_is_route1(self, trained):
        assert trained.classify(TraceFeatures(0.3, -25.0)) == "route1"

    def test_slope_gate_matches_paper(self, trained):
        # Paper: |slope| < 1 means in-room movement.
        assert trained.classify(TraceFeatures(0.99, -20)) == "route1"
        assert trained.classify(TraceFeatures(1.01, -18)) != "route1"

    def test_up_down_classified(self, trained):
        assert trained.classify(TraceFeatures(-1.72, -10.2)) == "up"
        assert trained.classify(TraceFeatures(2.05, -20.3)) == "down"

    def test_routes_2_3_separated_by_intercept(self, trained):
        assert trained.classify(TraceFeatures(-1.65, -12.1)) == "route2"
        assert trained.classify(TraceFeatures(1.7, -18.2)) == "route3"

    def test_untrained_gate_only(self):
        classifier = TraceClassifier()
        assert classifier.classify(TraceFeatures(0.2, -5)) == "route1"
        assert classifier.classify(TraceFeatures(-2.0, -5)) == "up"
        assert classifier.classify(TraceFeatures(2.0, -5)) == "down"

    def test_empty_training_rejected(self):
        with pytest.raises(ConfigError):
            TraceClassifier().fit({})

    def test_route_without_traces_rejected(self):
        with pytest.raises(ConfigError):
            TraceClassifier().fit({"up": []})


class TestFloorTracker:
    @pytest.fixture
    def tracked(self):
        env = HomeEnvironment(house_testbed(), deployment=0, seed=11)
        person = env.add_person("alice", Point(2, 4, 0))
        phone = env.add_smartphone("phone", person)
        classifier = TraceClassifier()  # gate-only
        tracker = FloorLevelTracker(
            env.sim, env.speaker_beacon, classifier,
            speaker_floor=0, floor_count=2,
        )
        tracker.track(phone)
        return env, person, phone, tracker

    def test_initial_floor_is_speaker_floor(self, tracked):
        env, person, phone, tracker = tracked
        assert tracker.floor_of("phone") == 0
        assert tracker.floor_ok("phone")

    def test_unknown_device_passes(self, tracked):
        env, person, phone, tracker = tracked
        assert tracker.floor_ok("stranger")

    def test_up_walk_updates_floor(self, tracked):
        env, person, phone, tracker = tracked
        route = env.testbed.routes["up"]
        person.follow(route)
        env.sim.run_for(1.5)
        tracker.on_motion(env.sim.now)
        env.sim.run_for(12.0)
        assert tracker.floor_of("phone") == 1
        assert not tracker.floor_ok("phone")
        assert tracker.trace_events[-1].label == "up"

    def test_stationary_trace_keeps_floor(self, tracked):
        env, person, phone, tracker = tracked
        tracker.on_motion(env.sim.now)
        env.sim.run_for(12.0)
        assert tracker.floor_of("phone") == 0
        assert tracker.trace_events[-1].label == "route1"

    def test_floor_clamped_to_building(self, tracked):
        env, person, phone, tracker = tracked
        tracker._floors["phone"] = 0
        # Fake two successive "down" classifications.
        tracker.classifier.classify = lambda f: "down"  # type: ignore[assignment]
        tracker.on_motion(env.sim.now)
        env.sim.run_for(12.0)
        assert tracker.floor_of("phone") == 0  # clamped at ground

    @pytest.mark.parametrize("floor", [-1, 2, 3])
    def test_speaker_floor_outside_the_building_is_rejected(self, floor):
        env = HomeEnvironment(house_testbed(), deployment=0, seed=11)
        with pytest.raises(ConfigError, match="speaker_floor"):
            FloorLevelTracker(env.sim, env.speaker_beacon, TraceClassifier(),
                              speaker_floor=floor, floor_count=2)

    @pytest.mark.parametrize("floor", [-4, -1, 2])
    def test_initial_floor_outside_the_building_is_rejected(self, tracked, floor):
        env, person, phone, tracker = tracked
        watch = env.add_smartwatch("watch", person)
        with pytest.raises(ConfigError, match="initial_floor"):
            tracker.track(watch, initial_floor=floor)
        assert tracker.floor_of("watch") is None
        tracker.track(watch, initial_floor=1)
        assert tracker.floor_of("watch") == 1

    def test_concurrent_motion_does_not_double_record(self, tracked):
        env, person, phone, tracker = tracked
        tracker.on_motion(env.sim.now)
        tracker.on_motion(env.sim.now)  # second event mid-recording
        env.sim.run_for(12.0)
        assert len(tracker.trace_events) == 1


class TestThresholdCalibration:
    def test_calibration_walk_produces_threshold(self):
        env = HomeEnvironment(apartment_testbed(), deployment=0, seed=13)
        person = env.add_person("alice", Point(2, 4, 0))
        phone = env.add_smartphone("phone", person)
        room = env.testbed.speaker_room(0)
        result = ThresholdCalibrator(env).calibrate(phone, room)
        assert result.sample_count > 10
        assert result.threshold == min(result.samples)
        # In the paper's scale the room walk bottoms out around -6..-10.
        assert -13.0 < result.threshold < -4.0

    def test_perimeter_route_stays_in_room(self):
        tb = apartment_testbed()
        room = tb.speaker_room(0)
        route = perimeter_route(room, inset=0.5)
        for t in np.linspace(0, route.duration, 30):
            p = route.position_at(float(t))
            assert room.x0 <= p.x <= room.x1
            assert room.y0 <= p.y <= room.y1

    def test_perimeter_route_rejects_tiny_room(self):
        from repro.radio.floorplan import Room
        tiny = Room("tiny", 0, 0, 0.5, 0.5, floor=0)
        with pytest.raises(ConfigError):
            perimeter_route(tiny)


class TestGuardLog:
    def test_log_filters(self):
        log = GuardLog()
        a = log.add(CommandEvent(1, 1, "ip", "tcp", opened_at=1.0))
        a.classification = TrafficClass.COMMAND
        b = log.add(CommandEvent(2, 1, "ip", "tcp", opened_at=2.0))
        b.classification = TrafficClass.RESPONSE
        assert len(log) == 2
        assert log.commands() == [a]
        assert log.between(1.5, 3.0) == [b]

    def test_event_derived_metrics(self):
        event = CommandEvent(1, 1, "ip", "tcp", opened_at=10.0)
        assert event.hold_duration is None
        assert event.decision_latency is None
        event.verdict_at = 11.5
        event.released_at = 11.6
        assert event.decision_latency == pytest.approx(1.5)
        assert event.hold_duration == pytest.approx(1.6)

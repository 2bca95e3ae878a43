"""Tests for persons, devices, push service, motion sensor, environment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.audio.voiceprint import UtteranceSource
from repro.errors import RadioError
from repro.home.devices import TRACE_SAMPLE_COUNT, TRACE_SAMPLE_PERIOD, MotionSensor
from repro.home.environment import HomeEnvironment
from repro.home.push import PushService, RssiReport
from repro.radio.geometry import Point
from repro.radio.testbeds import WalkRoute, apartment_testbed, house_testbed


@pytest.fixture
def env():
    return HomeEnvironment(apartment_testbed(), deployment=0, seed=5)


@pytest.fixture
def house_env():
    return HomeEnvironment(house_testbed(), deployment=0, seed=5)


class TestPerson:
    def test_teleport(self, env):
        person = env.add_person("alice", Point(1, 1, 0))
        person.teleport(Point(2, 3, 0))
        assert (person.position.x, person.position.y) == (2, 3)

    def test_walk_interpolates(self, env):
        person = env.add_person("alice", Point(0, 0, 0))
        route = WalkRoute("r", [Point(0, 0, 0), Point(4, 0, 0)], duration=4.0)
        person.follow(route)
        env.sim.run_for(2.0)
        assert person.position.x == pytest.approx(2.0)
        assert person.walking
        env.sim.run_for(3.0)
        assert person.position.x == pytest.approx(4.0)
        assert not person.walking

    def test_device_position_is_carried(self, env):
        person = env.add_person("alice", Point(1, 1, 0))
        assert person.device_position().z == pytest.approx(1.0)

    def test_owner_speaks_as_owner(self, env):
        person = env.add_person("alice", Point(1, 1, 0))
        utterance = person.speak("turn on lights", 2.0)
        assert utterance.source is UtteranceSource.LIVE_OWNER

    def test_guest_speaks_as_guest(self, env):
        person = env.add_person("guest", Point(1, 1, 0), is_owner=False)
        assert person.speak("hi", 1.0).source is UtteranceSource.LIVE_GUEST

    def test_duplicate_person_rejected(self, env):
        env.add_person("alice", Point(1, 1, 0))
        with pytest.raises(RadioError):
            env.add_person("alice", Point(2, 2, 0))


class TestDevices:
    def test_measure_rssi_is_async(self, env):
        person = env.add_person("alice", Point(2, 4, 0))
        phone = env.add_smartphone("phone", person)
        samples = []
        phone.measure_rssi(env.speaker_beacon, samples.append)
        assert samples == []
        env.sim.run_for(5.0)
        assert len(samples) == 1

    def test_record_trace_has_40_samples_over_8s(self, env):
        person = env.add_person("alice", Point(2, 4, 0))
        phone = env.add_smartphone("phone", person)
        traces = []
        phone.record_trace(env.speaker_beacon, traces.append)
        env.sim.run_for(TRACE_SAMPLE_COUNT * TRACE_SAMPLE_PERIOD + 1.0)
        assert len(traces) == 1
        assert len(traces[0]) == TRACE_SAMPLE_COUNT == 40
        span = traces[0][-1].time - traces[0][0].time
        assert span == pytest.approx((TRACE_SAMPLE_COUNT - 1) * TRACE_SAMPLE_PERIOD)

    def test_instant_rssi_reflects_distance(self, env):
        near = env.add_person("near", Point(2, 4, 0))
        far = env.add_person("far", Point(9, 1, 0))
        near_phone = env.add_smartphone("near-phone", near)
        far_phone = env.add_smartphone("far-phone", far)
        near_values = [near_phone.instant_rssi(env.speaker_beacon) for _ in range(20)]
        far_values = [far_phone.instant_rssi(env.speaker_beacon) for _ in range(20)]
        assert np.mean(near_values) > np.mean(far_values)

    def test_duplicate_device_rejected(self, env):
        person = env.add_person("alice", Point(2, 4, 0))
        env.add_smartphone("phone", person)
        with pytest.raises(RadioError):
            env.add_smartphone("phone", person)

    def test_watch_and_phone_kinds(self, env):
        person = env.add_person("alice", Point(2, 4, 0))
        assert env.add_smartphone("p", person).kind == "smartphone"
        assert env.add_smartwatch("w", person).kind == "smartwatch"


class TestMotionSensor:
    def test_fires_when_person_in_region(self, house_env):
        person = house_env.add_person("alice", Point(1, 1, 0))
        sensor = house_env.install_motion_sensor()
        events = []
        sensor.on_motion = events.append
        person.teleport(Point(7.0, 4.5, 0))  # inside the stair region
        house_env.sim.run_for(1.0)
        assert len(events) == 1

    def test_refractory_period(self, house_env):
        house_env.add_person("alice", Point(7.0, 4.5, 0))
        sensor = house_env.install_motion_sensor()
        events = []
        sensor.on_motion = events.append
        house_env.sim.run_for(MotionSensor.REFRACTORY - 1.0)
        assert len(events) == 1
        house_env.sim.run_for(MotionSensor.REFRACTORY)
        assert len(events) == 2

    def test_quiet_without_people_in_region(self, house_env):
        house_env.add_person("alice", Point(1, 1, 0))
        sensor = house_env.install_motion_sensor()
        house_env.sim.run_for(10.0)
        assert sensor.event_count == 0

    def test_single_floor_testbed_has_no_sensor(self, env):
        with pytest.raises(RadioError):
            env.install_motion_sensor()


class TestPushService:
    def test_rssi_report_roundtrip(self, env):
        person = env.add_person("alice", Point(2, 4, 0))
        phone = env.add_smartphone("phone", person)
        reports = []
        env.push.request_rssi(phone, env.speaker_beacon, reports.append)
        env.sim.run_for(8.0)
        assert len(reports) == 1
        report = reports[0]
        assert isinstance(report, RssiReport)
        assert report.round_trip > 0.3  # push + wake + scan + report

    def test_group_request_reaches_all(self, env):
        reports = []
        devices = []
        for index in range(3):
            person = env.add_person(f"p{index}", Point(2, 4, 0))
            devices.append(env.add_smartphone(f"phone{index}", person))
        env.push.request_group(devices, env.speaker_beacon, reports.append)
        env.sim.run_for(10.0)
        assert {r.device_name for r in reports} == {"phone0", "phone1", "phone2"}

    def test_delivery_delay_within_bounds(self, env):
        delays = [env.push.delivery_delay() for _ in range(300)]
        assert min(delays) >= PushService.DELIVERY_MIN
        assert max(delays) <= PushService.DELIVERY_MAX


class TestEnvironmentAcoustics:
    def test_same_room_heard(self, env):
        heard = env.speaker_hears(Point(3.0, 5.0, 1.2))
        assert heard

    def test_through_wall_not_heard(self, env):
        # Bedroom 2 is behind walls from the living-room speaker.
        assert not env.speaker_hears(Point(8.5, 1.0, 1.2))

    def test_microphone_callback_receives(self, env):
        person = env.add_person("alice", Point(2, 4, 0))
        heard = []
        env.register_microphone(lambda utt, src: heard.append(utt.text))
        utterance = person.speak("hello there", 1.5)
        assert env.play_utterance(utterance, person.device_position())
        assert heard == ["hello there"]

    def test_unheard_utterance_returns_false(self, env):
        person = env.add_person("alice", Point(8.5, 1.0, 0))
        utterance = person.speak("hello", 1.0)
        assert not env.play_utterance(utterance, person.device_position())

    def test_invalid_deployment_rejected(self):
        with pytest.raises(RadioError):
            HomeEnvironment(apartment_testbed(), deployment=5)

    def test_wifi_busy_aggregates_providers(self, env):
        assert not env.wifi_busy()
        env.wifi_busy_providers.append(lambda: True)
        assert env.wifi_busy()

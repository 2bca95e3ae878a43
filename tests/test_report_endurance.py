"""Tests for the consolidated report, hold endurance, and the
dual-speaker helper."""

from __future__ import annotations

import pytest

from repro.audio.speech import full_utterance_duration
from repro.errors import WorkloadError
from repro.experiments.hold_endurance import run_hold_endurance
from repro.experiments.report import ReportSection, ReproductionReport
from repro.experiments.scenarios import add_second_speaker, build_scenario

# Endurance sweeps simulate long holds across both actuators; they belong
# to the nightly full-suite run, not the per-push gate.
pytestmark = pytest.mark.slow


class TestHoldEndurance:
    def test_proxy_survives_long_holds(self):
        result = run_hold_endurance(holds=(2.0, 30.0), seed=29)
        proxy = [t for t in result.trials if t.actuator == "transparent proxy"]
        assert all(t.session_survived and t.executed_after_release for t in proxy)
        assert result.max_survivable_hold("transparent proxy") == 30.0

    def test_discard_is_unrecoverable(self):
        result = run_hold_endurance(holds=(2.0,), seed=31)
        dropped = [t for t in result.trials if t.actuator == "ack-and-discard"]
        assert all(not t.executed_after_release for t in dropped)
        assert result.max_survivable_hold("ack-and-discard") == 0.0

    def test_render_mentions_both_actuators(self):
        result = run_hold_endurance(holds=(2.0,), seed=29)
        text = result.render()
        assert "transparent proxy" in text and "ack-and-discard" in text


class TestReportContainer:
    def test_render_and_lookup(self):
        report = ReproductionReport(sections=[
            ReportSection("alpha", "body-a"),
            ReportSection("beta", "body-b"),
        ])
        text = report.render()
        assert "--- alpha ---" in text and "body-b" in text
        assert report.section("beta").text == "body-b"
        with pytest.raises(KeyError):
            report.section("gamma")


class TestDualSpeaker:
    def test_one_guard_two_speakers(self):
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=111,
            owner_count=1, with_floor_tracking=False,
        )
        google = add_second_speaker(scenario, "google")
        env = scenario.env
        owner = scenario.owners[0]
        owner.teleport(env.testbed.device_point(5).offset(dz=-1.0))
        rng = env.rng.stream("dual")
        command = scenario.corpus.sample(rng)
        duration = full_utterance_duration(command, rng)
        env.play_utterance(owner.speak(command.text, duration), owner.device_position())
        env.sim.run_for(duration + 20.0)
        echo_ok = any(r.executed_at for r in scenario.speaker.interactions.values())
        google_ok = any(r.executed_at for r in google.interactions.values())
        assert echo_ok and google_ok

    def test_second_echo_rejected(self):
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=113,
            owner_count=1, calibrate=False, with_floor_tracking=False,
        )
        with pytest.raises(WorkloadError):
            add_second_speaker(scenario, "echo")

    def test_double_google_rejected(self):
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=115,
            owner_count=1, calibrate=False, with_floor_tracking=False,
        )
        add_second_speaker(scenario, "google")
        with pytest.raises(WorkloadError):
            add_second_speaker(scenario, "google")

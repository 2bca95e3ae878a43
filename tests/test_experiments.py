"""Tests for the experiment runners (small scales; the full-scale
regenerations live in benchmarks/)."""

from __future__ import annotations

import pytest

from repro.audio.voiceprint import UtteranceSource
from repro.experiments.fig3 import group_spikes
from repro.experiments.fig6 import corpus_report
from repro.experiments.rssi_tables import PAPER_COUNTS, PAPER_TABLES
from repro.experiments.runner import run_rssi_experiment, score_interactions
from repro.experiments.scenarios import (
    _sensor_trigger_offset,
    build_scenario,
    train_trace_classifier,
)
from repro.experiments.workload import SevenDayWorkload
from repro.net.capture import PacketCapture
from repro.speakers.base import InteractionRecord


class TestScenarioBuilder:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario("house", "echo", deployment=0, seed=81, owner_count=2)

    def test_full_wiring(self, scenario):
        assert scenario.speaker.connected
        assert scenario.guard is not None
        assert scenario.motion_sensor is not None
        assert scenario.trace_classifier is not None and scenario.trace_classifier.trained
        assert len(scenario.owners) == len(scenario.devices) == 2

    def test_thresholds_calibrated_per_device(self, scenario):
        assert set(scenario.calibrations) == {"phone1", "phone2"}
        for result in scenario.calibrations.values():
            assert -13.0 < result.threshold < -4.0

    def test_devices_registered(self, scenario):
        assert len(scenario.guard.registry) == 2

    def test_avs_tracked(self, scenario):
        state = scenario.guard.recognition.speaker_state(scenario.speaker.ip)
        assert state.avs_ip is not None

    def test_unknown_speaker_kind_rejected(self):
        from repro.errors import WorkloadError
        with pytest.raises(WorkloadError):
            build_scenario("house", "homepod")

    def test_office_defaults_to_watch(self):
        scenario = build_scenario(
            "office", "echo", seed=83, calibrate=False, with_floor_tracking=False,
        )
        assert scenario.devices[0].kind == "smartwatch"

    def test_without_guard(self):
        scenario = build_scenario(
            "house", "echo", seed=85, with_guard=False,
            calibrate=False, with_floor_tracking=False,
        )
        assert scenario.guard is None
        assert scenario.speaker.connected

    def test_sensor_trigger_offset_for_stair_routes(self):
        from repro.radio.testbeds import house_testbed
        testbed = house_testbed()
        up = _sensor_trigger_offset(testbed, "up")
        route1 = _sensor_trigger_offset(testbed, "route1")
        assert 0.0 < up < 4.0
        assert route1 == 0.0


class TestScoring:
    def _record(self, source, executed):
        record = InteractionRecord(
            interaction_id=1, text="x", source=source, speaker_label="a",
            started_at=0.0, speech_ends_at=1.0,
        )
        if executed:
            record.executed_at = 2.0
        record.settle()
        return record

    def test_attack_blocked_is_true_positive(self):
        matrix = score_interactions([self._record(UtteranceSource.REPLAY, False)])
        assert matrix.true_positive == 1

    def test_attack_executed_is_false_negative(self):
        matrix = score_interactions([self._record(UtteranceSource.REPLAY, True)])
        assert matrix.false_negative == 1

    def test_owner_executed_is_true_negative(self):
        matrix = score_interactions([self._record(UtteranceSource.LIVE_OWNER, True)])
        assert matrix.true_negative == 1

    def test_owner_blocked_is_false_positive(self):
        matrix = score_interactions([self._record(UtteranceSource.LIVE_OWNER, False)])
        assert matrix.false_positive == 1


class TestWorkload:
    def test_small_run_scores_well(self):
        result = run_rssi_experiment(
            "apartment", "echo", 0, seed=87, legit_count=12, malicious_count=8,
        )
        assert result.legit_total == 12
        assert result.malicious_total == 8
        assert result.matrix.accuracy >= 0.85

    def test_interaction_ids_independent_of_process_history(self):
        """Two identical runs in one process number their interactions
        alike: ids belong to the run's world, not to the process."""
        runs = [run_rssi_experiment("apartment", "echo", 0, seed=1,
                                    legit_count=5, malicious_count=5)
                for _ in range(2)]
        first, second = ([r.interaction_id for r in run.records] for run in runs)
        assert first
        assert first == second

    def test_packet_numbers_independent_of_other_worlds(self):
        """Packet numbers belong to the world: building a second world
        before running the first leaves the first's numbering alone."""

        def first_numbers(build_another):
            scenario = build_scenario("apartment", "echo", deployment=0,
                                      owner_count=1, seed=5)
            if build_another:
                build_scenario("office", "google", deployment=1,
                               owner_count=2, seed=6)
            capture = PacketCapture().attach(scenario.network)
            scenario.run_for(120.0)
            return [record.number for record in capture.records[:5]]

        alone = first_numbers(build_another=False)
        assert alone == [169, 171, 170, 172, 173]
        assert first_numbers(build_another=True) == alone

    def test_workload_respects_counts(self):
        scenario = build_scenario(
            "apartment", "echo", deployment=0, seed=89, owner_count=1,
        )
        workload = SevenDayWorkload(scenario)
        result = workload.run(legit_count=6, malicious_count=4)
        assert result.legit_issued == 6
        assert result.malicious_issued == 4
        assert result.skipped_unheard == 0
        assert result.legit_issued + result.malicious_issued + result.skipped_unheard == 10

    @pytest.mark.parametrize("gap", [
        (10.0, 5.0), (float("nan"), 1.0), (1.0, float("inf")), (-5.0, -1.0), (-1.0, 5.0),
    ])
    def test_invalid_episode_gap_rejected(self, gap):
        from repro.errors import WorkloadError
        scenario = build_scenario(
            "apartment", "echo", deployment=0, seed=89, owner_count=1,
            calibrate=False, with_floor_tracking=False,
        )
        with pytest.raises(WorkloadError, match="episode_gap"):
            SevenDayWorkload(scenario, episode_gap=gap)

    def test_owners_sharing_an_away_point_wait_for_the_stair_walk(self):
        # Both owners draw the same away point; the one on the other
        # floor walks the stairs, so the attack must wait for that walk,
        # not for the other owner's one-second step.
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=3, owner_count=2,
            calibrate=False, with_floor_tracking=False,
        )
        workload = SevenDayWorkload(scenario)
        testbed = scenario.env.testbed
        spot = workload._away_points[0]
        floor = workload._floor_of_point(spot)
        elsewhere = next(n for n in workload._away_points
                         if workload._floor_of_point(n) != floor)
        walker, stayer = scenario.owners
        walker.teleport(testbed.standing_point(elsewhere))
        stayer.teleport(testbed.standing_point(spot))

        class SameSpot:
            # What ``pick`` draws: the index of ``spot`` in every list.
            def integers(self, low, high):
                return workload._away_points.index(spot)

        workload.rng = SameSpot()
        assert workload._place_owners_away() == workload.POST_STAIR_PAUSE + 2.0

    def test_away_points_exclude_stairs(self):
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=91, owner_count=1,
            calibrate=False, with_floor_tracking=False,
        )
        workload = SevenDayWorkload(scenario)
        plan = scenario.env.testbed.plan
        rooms = {plan.point(n).room_name for n in workload._away_points}
        assert "stairwell" not in rooms


class TestPaperConstants:
    def test_paper_tables_cover_all_cells(self):
        for testbed in ("house", "apartment", "office"):
            assert set(PAPER_TABLES[testbed]) == set(PAPER_COUNTS[testbed])
            for (speaker, loc), (legit, malicious) in PAPER_COUNTS[testbed].items():
                assert legit > 0 and malicious > 0

    def test_paper_cell_strings_match_counts(self):
        for testbed, cells in PAPER_TABLES.items():
            for key, (legit_str, mal_str) in cells.items():
                legit_total = int(legit_str.split("/")[1])
                mal_total = int(mal_str.split("/")[1])
                assert (legit_total, mal_total) == PAPER_COUNTS[testbed][key]


class TestFigureHelpers:
    def test_group_spikes_by_idle_gap(self):
        events = [(0.0, 10), (0.5, 20), (5.0, 30), (5.1, 40)]
        spikes = group_spikes(events, idle_gap=2.5)
        assert len(spikes) == 2
        assert spikes[0].lengths == [10, 20]
        assert spikes[1].lengths == [30, 40]
        assert spikes[0].total_bytes == 30
        assert spikes[1].packet_count == 2

    def test_corpus_report_renders(self):
        text = corpus_report()
        assert "alexa" in text and "google" in text

    def test_trace_training_respects_overrides(self):
        scenario = build_scenario(
            "house", "echo", deployment=0, seed=93, owner_count=1,
            calibrate=False, with_floor_tracking=False,
        )
        classifier = train_trace_classifier(
            scenario, repetitions={"up": 3, "down": 3, "route1": 3,
                                   "route2": 2, "route3": 2},
        )
        assert classifier.trained

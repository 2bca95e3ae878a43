"""7-day experiment workloads (paper Section V-B3).

The paper's protocol: owners live in the home carrying their phones
(or wearing the watch), issuing commands from wherever they are; a
malicious guest replays pre-recorded owner commands, but *only when no
owner is in the speaker's room*.  Owners move between rooms — in the
house, using the stairs, which fires the motion sensor and exercises
the floor tracker.

Simulated time compresses the idle periods between episodes: seven
days of life contain the same ~160 command episodes the paper reports,
and nothing about detection depends on how long the home sits idle
between them, so the default inter-episode gap is about a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.attacks.replay import ReplayAttack
from repro.errors import WorkloadError
from repro.experiments.scenarios import Scenario
from repro.home.person import Person
from repro.sim.random import pick, uniform


@dataclass
class WorkloadResult:
    """How many episodes were heard, as owner commands or attacks, and
    how many the speaker did not hear."""

    legit_issued: int = 0
    malicious_issued: int = 0
    skipped_unheard: int = 0


# An inter-episode gap that spreads the paper's ~160 episodes over ~7
# simulated days (about an hour of idle between episodes), matching the
# real capture timeline instead of the compressed default.
SEVEN_DAY_GAP = (2700.0, 4800.0)


class SevenDayWorkload:
    """Drives a scenario through a randomized command workload."""

    EPISODE_GAP = (45.0, 110.0)  # compressed idle between episodes
    STAIR_SETTLE = 13.0  # walk (8 s) + trace recording (ends <= ~9.5 s)
    POST_STAIR_PAUSE = 11.0  # stand at the stair exit until traces finish

    def __init__(
        self,
        scenario: Scenario,
        seed_name: str = "workload",
        episode_gap: tuple = None,
    ) -> None:
        """``episode_gap`` overrides the compressed idle window between
        episodes, e.g. :data:`SEVEN_DAY_GAP` spreads the ~160 episodes
        over the paper's real seven days.  The gap draw consumes exactly
        one RNG sample either way, so only the idle *lengths* change —
        which lets a run measure idle-time cost without touching
        detection behaviour.  A gap is a finite ``(low, high)`` with
        ``0 <= low <= high``."""
        self.scenario = scenario
        self.episode_gap = self.EPISODE_GAP if episode_gap is None else episode_gap
        low, high = self.episode_gap
        if not (math.isfinite(low) and math.isfinite(high) and 0.0 <= low <= high):
            raise WorkloadError(
                f"episode_gap must be finite with 0 <= low <= high, got {episode_gap!r}")
        self.rng = scenario.env.rng.stream(f"{seed_name}.schedule")
        self.attack = ReplayAttack(
            scenario.env,
            scenario.env.rng.stream(f"{seed_name}.attacker"),
            victim=scenario.owners[0].voiceprint,
        )
        testbed = scenario.env.testbed
        deployment = scenario.env.deployment
        self._legit_points = testbed.legitimate_points(deployment)
        all_points = sorted(testbed.plan.points.keys())
        self._away_points = [
            n for n in all_points
            if n not in self._legit_points and not self._in_stair_zone(n)
        ]
        if not self._legit_points or not self._away_points:
            raise WorkloadError("testbed lacks legitimate or away points")
        self._any_points = self._legit_points + self._away_points

    def _in_stair_zone(self, number: int) -> bool:
        """People pause on stairs, they don't loiter there; keeping
        dwell points off the staircase also keeps the motion sensor
        quiet between genuine traversals."""
        room = self.scenario.env.testbed.plan.point(number).room_name
        return room in ("stairwell", "landing")

    # -- movement helpers ------------------------------------------------------
    def _floor_of_point(self, number: int) -> int:
        return self.scenario.env.testbed.plan.floor_of(
            self.scenario.env.testbed.device_point(number)
        )

    def _move_owner(self, owner: Person, number: int) -> float:
        """Relocate an owner; returns the settling time needed.

        Cross-floor moves walk the stair route so the motion sensor and
        floor tracker observe them, exactly as a real resident would.
        """
        env = self.scenario.env
        current_floor = env.testbed.plan.floor_of(owner.position)
        target_floor = self._floor_of_point(number)
        routes = env.testbed.routes
        if target_floor != current_floor and "up" in routes:
            route = routes["up"] if target_floor > current_floor else routes["down"]
            owner.follow(route)
            # Linger at the stair exit until the 8-second floor trace
            # completes, then continue to the destination.
            end_point = env.testbed.standing_point(number)
            env.sim.post(self.POST_STAIR_PAUSE, owner.teleport, end_point)
            return self.POST_STAIR_PAUSE + 2.0
        owner.teleport(env.testbed.standing_point(number))
        return 1.0

    # -- episode execution ------------------------------------------------------
    def run(self, legit_count: int, malicious_count: int) -> WorkloadResult:
        """Interleave ``legit_count`` owner commands and
        ``malicious_count`` replay attacks; advances the simulator."""
        scenario = self.scenario
        env = scenario.env
        result = WorkloadResult()
        flags = [False] * legit_count + [True] * malicious_count
        self.rng.shuffle(flags)

        for malicious in flags:
            env.sim.run_for(uniform(self.rng, *self.episode_gap))
            command, duration = scenario.draw_command(self.rng)
            if malicious:
                env.sim.run_for(self._place_owners_away())
                attack_spot = pick(self.rng, self._legit_points)
                launch = self.attack.launch(
                    command.text, duration,
                    env.testbed.standing_point(attack_spot).offset(dz=1.2),
                )
                if launch.heard_by_speaker:
                    result.malicious_issued += 1
                else:
                    result.skipped_unheard += 1
            else:
                speaker_owner = pick(self.rng, scenario.owners)
                spot = pick(self.rng, self._legit_points)
                settle = self._move_owner(speaker_owner, spot)
                # Other owners wander anywhere.
                for other in scenario.owners:
                    if other is not speaker_owner:
                        anywhere = pick(self.rng, self._any_points)
                        settle = max(settle, self._move_owner(other, anywhere))
                env.sim.run_for(settle)
                utterance = speaker_owner.speak(command.text, duration)
                if env.play_utterance(utterance, speaker_owner.device_position()):
                    result.legit_issued += 1
                else:
                    result.skipped_unheard += 1
            # Let the interaction finish (decision + response playback).
            env.sim.run_for(duration + 18.0)

        env.sim.run_for(40.0)  # the last interaction settles
        return result

    def _place_owners_away(self) -> float:
        """Move every owner out of the speaker's room; returns the
        settling time the slowest of them needs."""
        settle = 1.0
        for owner in self.scenario.owners:
            away = pick(self.rng, self._away_points)
            settle = max(settle, self._move_owner(owner, away))
        return settle

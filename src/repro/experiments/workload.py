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

from dataclasses import dataclass, field
from typing import List

from repro.attacks.replay import ReplayAttack
from repro.audio.speech import full_utterance_duration
from repro.errors import WorkloadError
from repro.experiments.scenarios import Scenario
from repro.home.person import Person
from repro.radio.geometry import Point


@dataclass
class EpisodePlan:
    """One scheduled command episode."""

    index: int
    malicious: bool
    command_text: str
    issuer: str  # owner name or "attacker"
    owner_points: List[int]  # measurement point per owner during episode


@dataclass
class WorkloadResult:
    """Everything a run produced, for scoring."""

    episodes: List[EpisodePlan] = field(default_factory=list)
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
        detection behaviour."""
        self.scenario = scenario
        self.episode_gap = self.EPISODE_GAP if episode_gap is None else episode_gap
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

    def _in_stair_zone(self, number: int) -> bool:
        """People pause on stairs, they don't loiter there; keeping
        dwell points off the staircase also keeps the motion sensor
        quiet between genuine traversals."""
        room = self.scenario.env.testbed.plan.point(number).room_name
        return room in ("stairwell", "landing")

    # -- movement helpers ------------------------------------------------------
    def _point(self, number: int) -> Point:
        # Measurement points are at device height; people stand on floors.
        return self.scenario.env.testbed.device_point(number).offset(dz=-1.0)

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
            end_point = self._point(number)
            env.sim.schedule(self.POST_STAIR_PAUSE, owner.teleport, end_point)
            return self.POST_STAIR_PAUSE + 2.0
        owner.teleport(self._point(number))
        return 1.0

    # -- episode execution ------------------------------------------------------
    def run(
        self,
        legit_count: int,
        malicious_count: int,
        settle_after: float = 40.0,
    ) -> WorkloadResult:
        """Interleave ``legit_count`` owner commands and
        ``malicious_count`` replay attacks; advances the simulator."""
        scenario = self.scenario
        env = scenario.env
        result = WorkloadResult()
        flags = [False] * legit_count + [True] * malicious_count
        self.rng.shuffle(flags)

        for index, malicious in enumerate(flags):
            env.sim.run_for(float(self.rng.uniform(*self.episode_gap)))
            command = scenario.corpus.sample(self.rng)
            duration = full_utterance_duration(command, self.rng)
            if malicious:
                points = self._place_owners_away()
                settle = max(points.values()) if points else 1.0
                env.sim.run_for(settle)
                attack_spot = int(self.rng.choice(self._legit_points))
                launch = self.attack.launch(
                    command.text, duration, self._point(attack_spot).offset(dz=1.2)
                )
                if launch.heard_by_speaker:
                    result.malicious_issued += 1
                else:
                    result.skipped_unheard += 1
                issuer = "attacker"
                owner_points = list(points.keys())
            else:
                speaker_owner = scenario.owners[int(self.rng.integers(0, len(scenario.owners)))]
                spot = int(self.rng.choice(self._legit_points))
                settle = self._move_owner(speaker_owner, spot)
                # Other owners wander anywhere.
                for other in scenario.owners:
                    if other is not speaker_owner:
                        anywhere = int(self.rng.choice(self._legit_points + self._away_points))
                        settle = max(settle, self._move_owner(other, anywhere))
                env.sim.run_for(settle)
                utterance = speaker_owner.speak(command.text, duration)
                if env.play_utterance(utterance, speaker_owner.device_position()):
                    result.legit_issued += 1
                else:
                    result.skipped_unheard += 1
                issuer = speaker_owner.name
                owner_points = [spot]
            result.episodes.append(EpisodePlan(
                index=index,
                malicious=malicious,
                command_text=command.text,
                issuer=issuer,
                owner_points=owner_points,
            ))
            # Let the interaction finish (decision + response playback).
            env.sim.run_for(duration + 18.0)

        env.sim.run_for(settle_after)
        return result

    def _place_owners_away(self) -> dict:
        """Move every owner out of the speaker's room; returns settle
        times keyed by point number."""
        settle_times = {}
        for owner in self.scenario.owners:
            away = int(self.rng.choice(self._away_points))
            settle_times[away] = self._move_owner(owner, away)
        return settle_times

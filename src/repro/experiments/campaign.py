"""Large-scale remote attack campaigns (paper Section III-B).

The remote attacker "embeds malicious commands in videos/audios that
are published on popular media streaming platforms for large-scale
attacks": one payload, many homes.  This experiment simulates a fleet
of independent VoiceGuard-protected homes (different seeds, different
resident behaviour), plays the same campaign through each home's
compromised playback device, and measures the campaign's success rate
across the fleet — alongside the rate in unprotected homes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.reporting import render_table
from repro.attacks.base import ClonedVoiceAttack
from repro.audio.speech import SPEECH_WORDS_PER_SECOND
from repro.audio.voiceprint import UtteranceSource
from repro.errors import WorkloadError
from repro.experiments.parallel import ExperimentEngine, ExperimentTask
from repro.experiments.scenarios import build_scenario

CAMPAIGN_PAYLOADS = (
    "unlock the front door right now",
    "disarm the security system please",
    "open the garage door now please",
    "order a gift card for me today",
)


@dataclass
class HomeOutcome:
    """One home's exposure to the campaign."""

    seed: int
    protected: bool
    owner_home: bool
    payloads_played: int
    payloads_executed: int


@dataclass
class CampaignResult:
    homes: List[HomeOutcome] = field(default_factory=list)

    def executed_fraction(self, protected: bool) -> float:
        pool = [h for h in self.homes if h.protected == protected]
        played = sum(h.payloads_played for h in pool)
        executed = sum(h.payloads_executed for h in pool)
        return executed / played if played else float("nan")

    def compromised_homes(self, protected: bool) -> int:
        return sum(
            1 for h in self.homes
            if h.protected == protected and h.payloads_executed > 0
        )

    def render(self) -> str:
        """Render as paper-style text."""
        rows = []
        for protected in (False, True):
            pool = [h for h in self.homes if h.protected == protected]
            rows.append([
                "VoiceGuard" if protected else "unprotected",
                len(pool),
                self.compromised_homes(protected),
                f"{self.executed_fraction(protected):.0%}",
            ])
        return render_table(
            "Media-embedded campaign across a fleet of homes "
            f"({len(CAMPAIGN_PAYLOADS)} payloads per home)",
            ["fleet", "homes", "homes compromised", "payloads executed"],
            rows,
        )


def _run_home(seed: int, protected: bool, owner_home: bool) -> HomeOutcome:
    scenario = build_scenario(
        "house", "echo", deployment=0, seed=seed,
        owner_count=1, with_floor_tracking=False,
        with_guard=protected,
    )
    env = scenario.env
    owner = scenario.owners[0]
    if owner_home:
        # Home but in another room — the realistic campaign victim is
        # not staring at the speaker.
        owner.teleport(env.testbed.standing_point(33))
    else:
        owner.teleport(env.testbed.standing_point(75))  # upstairs/out
    env.sim.run_for(2.0)

    tv = ClonedVoiceAttack(env, env.rng.stream("campaign"), owner.voiceprint,
                           UtteranceSource.REMOTE_PLAYBACK)
    tv_position = env.speaker_beacon.position.offset(dx=1.8, dy=0.5)
    played = 0
    for payload in CAMPAIGN_PAYLOADS:
        duration = len(payload.split()) / SPEECH_WORDS_PER_SECOND + 0.8
        result = tv.launch(payload, duration, tv_position)
        if result.heard_by_speaker:
            played += 1
        env.sim.run_for(duration + 18.0)

    records = scenario.speaker.settle_all()
    executed = sum(1 for r in records if r.is_attack and r.executed_at is not None)
    return HomeOutcome(
        seed=seed,
        protected=protected,
        owner_home=owner_home,
        payloads_played=played,
        payloads_executed=executed,
    )


def run_campaign(
    homes: int = 6,
    seed: int = 200,
    workers: int = 1,
    use_cache: bool = False,
) -> CampaignResult:
    """Run the campaign against ``homes`` protected and ``homes``
    unprotected households.

    Every home is an independent simulation (its own seed and resident
    behaviour), so ``workers`` fans the fleet out over a process pool
    without changing any outcome.
    """
    if homes < 1:
        raise WorkloadError(f"campaign needs at least one home, got {homes!r}")
    tasks = []
    for index in range(homes):
        owner_home = index % 2 == 0
        for protected in (False, True):
            tasks.append(ExperimentTask(
                fn=_run_home,
                args=(seed + index,),
                kwargs=dict(protected=protected, owner_home=owner_home),
                label=f"campaign/home{index}/"
                      f"{'guarded' if protected else 'unprotected'}",
            ))
    engine = ExperimentEngine(workers=workers, use_cache=use_cache)
    return CampaignResult(homes=engine.run(tasks))

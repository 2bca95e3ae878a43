"""Ablations and defense comparisons (DESIGN.md section 5).

* ``run_defense_matrix`` — VoiceGuard vs the voice-match baseline vs no
  defense, against the full attack gallery (replay, synthesis,
  inaudible, laser, remote playback, live guest) plus live owner
  commands: the paper's core security argument in one table.
* ``run_floor_ablation`` — floor tracking on vs off in the house: off
  reproduces the above-speaker leak as recall loss.
* ``run_signature_ablation`` — AVS tracking with vs without connection
  signatures: without them, silent IP changes orphan the guard.
* ``run_firewall_comparison`` — transparent proxy vs packet-dropping
  firewall: what "blocking" costs legitimate users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.analysis.reporting import render_table
from repro.attacks.base import Attack, ClonedVoiceAttack
from repro.attacks.replay import ReplayAttack
from repro.audio.verification import VoiceMatchVerifier
from repro.audio.voiceprint import UtteranceSource, VoicePrint, live_utterance
from repro.baselines.firewall import FirewallTap
from repro.core.decision import DecisionContext, RssiDecisionMethod
from repro.core.registry import DeviceRegistry
from repro.experiments.runner import run_rssi_experiment
from repro.experiments.scenarios import Scenario, build_scenario
from repro.net.addresses import IPv4Address
from repro.speakers.base import InteractionRecord

ATTACK_KINDS = ("replay", "synthesis", "inaudible", "laser", "remote_playback", "live_guest")


@dataclass
class DefenseMatrixResult:
    """blocked / total per (defense, attack-or-legit source)."""

    counts: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)
    # counts[defense][source] = [blocked, total]

    def record(self, defense: str, source: str, blocked: bool) -> None:
        cell = self.counts.setdefault(defense, {}).setdefault(source, [0, 0])
        cell[1] += 1
        if blocked:
            cell[0] += 1

    def block_rate(self, defense: str, source: str) -> float:
        blocked, total = self.counts.get(defense, {}).get(source, (0, 0))
        return blocked / total if total else float("nan")

    def render(self) -> str:
        """Render as paper-style text."""
        defenses = sorted(self.counts)
        sources = list(ATTACK_KINDS) + ["live_owner"]
        rows = []
        for source in sources:
            row = [source]
            for defense in defenses:
                blocked, total = self.counts.get(defense, {}).get(source, (0, 0))
                row.append(f"{blocked}/{total}" if total else "-")
            rows.append(row)
        return render_table(
            "Defense comparison: blocked / issued per attack class "
            "(live_owner should NOT be blocked)",
            ["source", *defenses],
            rows,
        )


def _make_attacks(scenario: Scenario, rng: np.random.Generator) -> Dict[str, Attack]:
    """The attacker for every kind but the live guest, who just talks."""
    env = scenario.env
    victim = scenario.owners[0].voiceprint
    return {kind: ReplayAttack(env, rng, victim) if kind == "replay"
            else ClonedVoiceAttack(env, rng, victim, UtteranceSource(kind))
            for kind in ATTACK_KINDS if kind != "live_guest"}


def _executed_since(scenario: Scenario, before: set) -> List[InteractionRecord]:
    """The speaker's interactions not in ``before`` (a snapshot of its
    interaction ids) that executed, oldest first."""
    interactions = scenario.speaker.interactions
    return [interactions[i] for i in interactions
            if i not in before and interactions[i].executed_at is not None]


def _run_defense_arm(
    result: DefenseMatrixResult,
    defense: str,
    seed: int,
    trials_per_attack: int,
    legit_trials: int,
) -> None:
    """One defense's arm of the matrix, recorded into ``result``: its
    own scenario and rng."""
    scenario = build_scenario(
        "house", "echo", deployment=0, seed=seed,
        owner_count=1, with_floor_tracking=False,
        with_guard=(defense == "voiceguard"),
    )
    env = scenario.env
    owner = scenario.owners[0]
    rng = env.rng.stream(f"ablation.{defense}")
    if defense == "voice_match":
        verifier = VoiceMatchVerifier()
        verifier.enroll(owner.voiceprint, rng)
        scenario.speaker.enable_voice_match(verifier)
    attacks = _make_attacks(scenario, rng)
    attack_spot = env.testbed.device_point(3).offset(dz=0.2)
    away_spot = env.testbed.standing_point(30)
    near_spot = env.testbed.standing_point(5)

    # Attacks with the owner away from the speaker room, then
    # legitimate commands with the owner near the speaker.
    trials = [(kind, away_spot) for kind in ATTACK_KINDS for _ in range(trials_per_attack)]
    trials += [("live_owner", near_spot)] * legit_trials
    for kind, spot in trials:
        owner.teleport(spot)
        env.sim.run_for(2.0)
        before = set(scenario.speaker.interactions)
        if kind == "live_owner":
            duration = scenario.speak_command(rng)
        else:
            command, duration = scenario.draw_command(rng)
            if kind == "live_guest":
                guest = VoicePrint.create("guest", env.rng.stream("guest.voice"))
                utterance = live_utterance(
                    command.text, duration, guest, rng,
                    source=UtteranceSource.LIVE_GUEST,
                )
                env.play_utterance(utterance, attack_spot)
            else:
                attacks[kind].launch(command.text, duration, attack_spot)
        env.sim.run_for(duration + 16.0)
        result.record(defense, kind, blocked=not _executed_since(scenario, before))


def run_defense_matrix(
    seed: int = 17,
    trials_per_attack: int = 8,
    legit_trials: int = 8,
) -> DefenseMatrixResult:
    """VoiceGuard vs voice-match vs no defense, full attack gallery.

    Each defense arm is its own scenario; their counts share one matrix.
    """
    result = DefenseMatrixResult()
    for defense in ("none", "voice_match", "voiceguard"):
        _run_defense_arm(result, defense, seed, trials_per_attack, legit_trials)
    return result


@dataclass
class FloorAblationResult:
    with_tracking: object  # RssiExperimentResult
    without_tracking: object

    def render(self) -> str:
        """Render as paper-style text."""
        rows = []
        for label, res in (("floor tracking ON", self.with_tracking),
                           ("floor tracking OFF", self.without_tracking)):
            rows.append([
                label,
                f"{res.malicious_correct}/{res.malicious_total}",
                f"{res.matrix.recall:.1%}",
                f"{res.matrix.accuracy:.1%}",
            ])
        return render_table(
            "Floor-tracking ablation (two-floor house): the above-speaker "
            "leak turns into missed attacks without it",
            ["configuration", "attacks blocked", "recall", "accuracy"],
            rows,
        )


def run_floor_ablation(
    seed: int = 19,
    legit: int = 50,
    malicious: int = 40,
) -> FloorAblationResult:
    common = dict(seed=seed, legit_count=legit, malicious_count=malicious)
    return FloorAblationResult(
        with_tracking=run_rssi_experiment("house", "echo", 0, **common),
        without_tracking=run_rssi_experiment("house", "echo", 0, **common,
                                             with_floor_tracking=False),
    )


@dataclass
class SignatureAblationResult:
    reconnects: int
    silent_reconnects_tracked: int  # AVS re-identified without DNS
    commands_checked_with: int
    commands_checked_without: int
    commands_total: int

    def render(self) -> str:
        """Render as paper-style text."""
        return (
            "AVS-signature ablation: of "
            f"{self.commands_total} commands issued across {self.reconnects} reconnects, "
            f"{self.commands_checked_with} were recognized with signature tracking vs "
            f"{self.commands_checked_without} without (DNS-only loses the server after "
            "silent IP changes)"
        )


def _run_signature_arm(use_signature: bool, seed: int, commands: int) -> Dict[str, int]:
    """One arm (signatures on or off) of the AVS-signature ablation."""
    scenario = build_scenario(
        "house", "echo", deployment=0, seed=seed,
        owner_count=1, with_floor_tracking=False,
    )
    scenario.guard.recognition.use_signature_tracking = use_signature
    if not use_signature:
        # Forget what boot-time signature matching already learned.
        state = scenario.guard.recognition.speaker_state(scenario.speaker.ip)
        if state.avs_ip_source == "signature":
            state.avs_ip = None
    env = scenario.env
    scenario.owners[0].teleport(env.testbed.standing_point(5))
    rng = env.rng.stream("sig.ablation")
    reconnects = 0
    for index in range(commands):
        # Force a reconnect before each command by dropping the
        # speaker's live AVS connection (cloud-side churn).
        if scenario.speaker._conn is not None and index > 0:
            scenario.speaker._conn.abort("cloud-restart")
            reconnects += 1
            env.sim.run_for(8.0)
        duration = scenario.speak_command(rng)
        env.sim.run_for(duration + 16.0)
    checked = len([e for e in scenario.guard.log.commands() if e.verdict is not None])
    return {"checked": checked, "reconnects": reconnects}


def run_signature_ablation(
    seed: int = 21,
    commands: int = 25,
) -> SignatureAblationResult:
    """Measure guarded-command coverage with and without signatures.

    Between commands the AVS session is aborted so the Echo reconnects,
    half the time without a DNS query; DNS-only tracking then loses the
    AVS flow and commands pass unchecked.  The two arms are independent
    scenarios (reconnects are reported from the signature arm).
    """
    with_sig = _run_signature_arm(True, seed, commands)
    without_sig = _run_signature_arm(False, seed, commands)
    return SignatureAblationResult(
        reconnects=with_sig["reconnects"],
        silent_reconnects_tracked=with_sig["checked"],
        commands_checked_with=with_sig["checked"],
        commands_checked_without=without_sig["checked"],
        commands_total=commands,
    )


@dataclass
class FirewallComparisonResult:
    proxy_executed: int
    proxy_total: int
    proxy_mean_reply_delay: float
    firewall_executed: int
    firewall_total: int
    firewall_mean_reply_delay: float
    firewall_sessions_broken: int
    proxy_sessions_broken: int = 0

    def render(self) -> str:
        """Render as paper-style text."""
        rows = [
            ["VoiceGuard proxy", f"{self.proxy_executed}/{self.proxy_total}",
             f"{self.proxy_mean_reply_delay:.2f}s", self.proxy_sessions_broken],
            ["packet-dropping firewall", f"{self.firewall_executed}/{self.firewall_total}",
             f"{self.firewall_mean_reply_delay:.2f}s", self.firewall_sessions_broken],
        ]
        return render_table(
            "Hold-and-release vs firewall blocking (mixed workload, "
            "legitimate commands scored)",
            ["actuator", "legit commands executed", "mean cloud-reply delay",
             "sessions broken"],
            rows,
        )


def _run_proxy_arm(seed: int, commands: int) -> tuple:
    """VoiceGuard-proxy arm: (executed, mean delay, total, broken sessions)."""
    scenario = build_scenario(
        "house", "echo", deployment=0, seed=seed,
        owner_count=1, with_floor_tracking=False,
    )
    sessions_before = scenario.avs_cloud.stats.sessions_closed
    executed, mean_delay, total = _run_mixed_workload(scenario, commands, "fw.proxy")
    sessions_broken = scenario.avs_cloud.stats.sessions_closed - sessions_before
    return executed, mean_delay, total, sessions_broken


def _run_firewall_arm(seed: int, commands: int) -> tuple:
    """Packet-dropping-firewall arm: same tuple as :func:`_run_proxy_arm`."""
    scenario = build_scenario(
        "house", "echo", deployment=0, seed=seed,
        owner_count=1, with_floor_tracking=False, with_guard=False,
    )
    env = scenario.env
    registry = DeviceRegistry()
    threshold = scenario.calibrations[scenario.devices[0].name].threshold
    registry.register(scenario.devices[0], threshold)
    method = RssiDecisionMethod(env.sim, env.push, registry, env.speaker_beacon)

    def decide(callback) -> None:
        context = DecisionContext(window_id=0, speaker_ip="", requested_at=env.sim.now)
        method.decide(context, lambda result: callback(result.legitimate))

    firewall = FirewallTap(
        "firewall", IPv4Address("192.168.1.60"), {scenario.speaker.ip}, decide
    )
    scenario.network.attach(firewall)
    scenario.network.install_tap(scenario.speaker.ip, firewall)
    sessions_before = scenario.avs_cloud.stats.sessions_closed
    executed, mean_delay, total = _run_mixed_workload(scenario, commands, "fw.fw")
    sessions_broken = scenario.avs_cloud.stats.sessions_closed - sessions_before
    return executed, mean_delay, total, sessions_broken


def run_firewall_comparison(
    seed: int = 23,
    commands: int = 20,
) -> FirewallComparisonResult:
    """Mixed-workload UX under the proxy vs under a firewall.

    Every fifth episode is a replay attack (both actuators block it);
    the interesting part is the *next* legitimate command, issued
    shortly after: the proxy's hold-and-discard leaves the session
    usable, while the firewall's block window and connection breakage
    make the user repeat themselves (the paper's Section I contrast).
    """
    proxy_stats = _run_proxy_arm(seed, commands)
    firewall_stats = _run_firewall_arm(seed + 1, commands)
    return FirewallComparisonResult(
        proxy_executed=proxy_stats[0],
        proxy_total=proxy_stats[2],
        proxy_mean_reply_delay=proxy_stats[1],
        firewall_executed=firewall_stats[0],
        firewall_total=firewall_stats[2],
        firewall_mean_reply_delay=firewall_stats[1],
        firewall_sessions_broken=firewall_stats[3],
        proxy_sessions_broken=proxy_stats[3],
    )


def _run_mixed_workload(scenario: Scenario, commands: int, rng_name: str) -> tuple:
    """Legit commands with an attack every fifth episode; returns
    (legit executed, mean legit reply delay, legit total)."""
    env = scenario.env
    owner = scenario.owners[0]
    near = env.testbed.standing_point(5)
    away = env.testbed.standing_point(30)
    rng = env.rng.stream(rng_name)
    attack = ReplayAttack(env, env.rng.stream(rng_name + ".attacker"),
                          victim=owner.voiceprint)
    delays = []
    executed = 0
    legit_total = 0
    for index in range(commands):
        if index % 5 == 4:
            # Attack episode: owner steps out, a replay plays nearby.
            owner.teleport(away)
            env.sim.run_for(2.0)
            command, duration = scenario.draw_command(rng)
            attack.launch(command.text, duration, env.testbed.device_point(3))
            env.sim.run_for(duration + 8.0)
            continue
        owner.teleport(near)
        env.sim.run_for(2.0)
        legit_total += 1
        before = set(scenario.speaker.interactions)
        duration = scenario.speak_command(rng)
        speech_end = env.sim.now + duration
        env.sim.run_for(duration + 20.0)
        for record in _executed_since(scenario, before):
            executed += 1
            delays.append(max(record.executed_at - speech_end, 0.0))
    mean_delay = float(np.mean(delays)) if delays else float("nan")
    return executed, mean_delay, legit_total

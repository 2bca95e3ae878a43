"""Hold endurance: how long can traffic be parked without breaking?

The paper's second contribution leans on the IoT event-delay findings
it cites (Section I): the transparent proxy "can hold smart speaker's
traffic for dozens of seconds without triggering any alarm or causing
the connection to be terminated", because it keeps ACKing segments and
keepalive probes locally.  A firewall that silently drops instead
starves the speaker's TCP, which retransmits, stalls, and aborts.

This experiment sweeps the hold duration and records, for each
actuator, whether the session survived and whether the command still
executed after release.  The strawman arm ("ack-and-discard") accepts
records and throws them away instead of queueing them: whatever the
delay, the data is gone and the TLS sequence gap kills the session —
holding, not dropping, is what makes deferred decisions free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.reporting import render_table
from repro.experiments.parallel import ExperimentEngine, ExperimentTask
from repro.experiments.scenarios import build_scenario
from repro.net.proxy import ForwarderDecision


@dataclass
class HoldTrial:
    actuator: str
    hold_seconds: float
    session_survived: bool
    executed_after_release: bool


@dataclass
class HoldEnduranceResult:
    trials: List[HoldTrial] = field(default_factory=list)

    def max_survivable_hold(self, actuator: str) -> float:
        survived = [t.hold_seconds for t in self.trials
                    if t.actuator == actuator and t.session_survived
                    and t.executed_after_release]
        return max(survived) if survived else 0.0

    def render(self) -> str:
        """Render as paper-style text."""
        rows = []
        for trial in self.trials:
            rows.append([
                trial.actuator,
                f"{trial.hold_seconds:.0f}s",
                "yes" if trial.session_survived else "NO",
                "yes" if trial.executed_after_release else "NO",
            ])
        table = render_table(
            "Hold endurance: park a command's records for N seconds, then release",
            ["actuator", "hold", "session survived", "command executed after release"],
            rows,
        )
        return table + (
            f"\nmax survivable hold — proxy: "
            f"{self.max_survivable_hold('transparent proxy'):.0f}s, "
            f"ack-and-discard: {self.max_survivable_hold('ack-and-discard'):.0f}s"
        )


def _run_trial(hold_seconds: float, use_proxy_hold: bool, seed: int) -> HoldTrial:
    scenario = build_scenario(
        "house", "echo", deployment=0, seed=seed,
        owner_count=1, with_floor_tracking=False, calibrate=False, with_guard=True,
    )
    env = scenario.env
    guard = scenario.guard
    scenario.owners[0].teleport(env.testbed.standing_point(5))

    # Replace the guard's policy with a manual one: hold (or drop)
    # everything on the AVS flow for ``hold_seconds``, then release.
    state = guard.recognition.speaker_state(scenario.speaker.ip)
    holding = {"active": True}
    touched_flows = []

    def policy(flow, packet):
        if state.avs_ip is None or flow.server.ip != state.avs_ip:
            return ForwarderDecision.FORWARD
        if holding["active"]:
            if flow not in touched_flows:
                touched_flows.append(flow)
            if use_proxy_hold:
                return ForwarderDecision.HOLD
            return ForwarderDecision.DROP
        return ForwarderDecision.FORWARD

    guard.proxy.record_policy = policy

    duration = scenario.speak_command(env.rng.stream("hold-endurance"))
    env.sim.run_for(hold_seconds)
    holding["active"] = False
    for flow in touched_flows:
        guard.proxy.release_held(flow)
    env.sim.run_for(duration + 25.0)

    record = list(scenario.speaker.interactions.values())[-1]
    record.settle()
    survived = (
        scenario.speaker.connected
        and not scenario.avs_cloud.stats.tls_violations
        and scenario.speaker.reconnect_count == 0
    )
    return HoldTrial(
        actuator="transparent proxy" if use_proxy_hold else "ack-and-discard",
        hold_seconds=hold_seconds,
        session_survived=survived,
        executed_after_release=record.executed_at is not None,
    )


def run_hold_endurance(
    holds: tuple = (2.0, 10.0, 30.0, 60.0),
    seed: int = 29,
    workers: int = 1,
    use_cache: bool = False,
) -> HoldEnduranceResult:
    """Sweep hold durations for the proxy and a silent-drop actuator.

    Each (actuator, hold) trial is an independent scenario; ``workers``
    fans the sweep out over a process pool.
    """
    tasks = []
    for use_proxy_hold, arm_seed in ((True, seed), (False, seed + 1)):
        for hold_seconds in holds:
            actuator = "proxy" if use_proxy_hold else "discard"
            tasks.append(ExperimentTask(
                fn=_run_trial,
                args=(hold_seconds,),
                kwargs=dict(use_proxy_hold=use_proxy_hold, seed=arm_seed),
                label=f"hold/{actuator}/{hold_seconds:g}s",
            ))
    engine = ExperimentEngine(workers=workers, use_cache=use_cache)
    return HoldEnduranceResult(trials=engine.run(tasks))

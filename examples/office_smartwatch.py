#!/usr/bin/env python3
"""Office testbed with a smartwatch and a Google Home Mini.

Mirrors the paper's third testbed: the legitimate user wears a
Galaxy-Watch-like wearable, and the speaker is a Google Home Mini whose
per-command sessions hop between TCP and QUIC — both of which the
guard's traffic handler can hold and block.

Run:  python examples/office_smartwatch.py
"""

from __future__ import annotations

from collections import Counter

from repro import build_scenario
from repro.attacks.base import ClonedVoiceAttack
from repro.audio.voiceprint import UtteranceSource


def main() -> None:
    scenario = build_scenario(
        "office", "google", deployment=0, seed=18,
        owner_count=1, device_kind="smartwatch",
    )
    env, guard, speaker = scenario.env, scenario.guard, scenario.speaker
    worker = scenario.owners[0]
    watch = scenario.devices[0]
    print(f"wearable {watch.name!r} ({watch.kind}) calibrated at "
          f"{scenario.calibrations[watch.name].threshold:.1f}")

    rng = env.rng.stream("demo")
    desk = env.testbed.standing_point(13)     # open office
    meeting = env.testbed.standing_point(48)  # behind walls

    # --- legit commands from the desk (transport mix emerges) ----------
    for _ in range(6):
        worker.teleport(desk)
        env.sim.run_for(1.0)
        duration = scenario.speak_command(rng)
        env.sim.run_for(duration + 18.0)

    # --- attacks while the worker is in the meeting room ----------------
    attacker = ClonedVoiceAttack(env, env.rng.stream("attacker"), worker.voiceprint,
                                 UtteranceSource.SYNTHESIS)
    for _ in range(6):
        worker.teleport(meeting)
        env.sim.run_for(2.0)
        command, duration = scenario.draw_command(rng)
        attacker.launch(command.text, duration, env.testbed.device_point(13))
        env.sim.run_for(duration + 18.0)

    records = speaker.settle_all()
    outcome_by_transport = Counter()
    for record in records:
        key = (record.meta.get("transport"), record.is_attack, record.outcome.value)
        outcome_by_transport[key] += 1
        marker = "ATTACK" if record.is_attack else "worker"
        print(f"  {marker} [{record.meta.get('transport'):4s}] "
              f"{record.text[:38]!r:40s} -> {record.outcome.value}")

    print("\nper-transport outcomes (transport, is_attack, outcome):")
    for key, count in sorted(outcome_by_transport.items(), key=str):
        print(f"  {key}: {count}")
    print(f"\nQUIC sessions seen: {speaker.quic_sessions} of {speaker.sessions_opened}")


if __name__ == "__main__":
    main()

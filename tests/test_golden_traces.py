"""Golden-trace regression suite.

Three canonical runs at a fixed seed — a released owner command, a
blocked remote replay, and a degraded-mode grant during a home-wide
push outage — each captured as a committed JSON fixture holding the
full span forest, the guard's command-event stream, and the typed
resilience trail.  The tests assert *exact* equality: any change to
span structure, timestamps, attributes, or guard behaviour shows up as
a fixture diff rather than silently shifting.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-goldens

and review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.audio.speech import full_utterance_duration
from repro.audio.voiceprint import replay_of
from repro.core.config import VoiceGuardConfig
from repro.core.decision import Verdict
from repro.experiments.scenarios import Scenario, build_scenario
from repro.faults.plan import FaultPlan, offline_outage
from repro.obs.export import span_to_dict
from repro.radio.geometry import distance

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
SEED = 11

# Sim time when a golden scenario's build completes (24 s calibration
# walk + 6 s settle); the degraded case's outage window is keyed to it.
BUILD_DONE = 30.0
OUTAGE = (60.0, 300.0)


# ---------------------------------------------------------------------------
# Scenario scripts
# ---------------------------------------------------------------------------

def _golden_scenario(config=None, fault_plan=None) -> Scenario:
    return build_scenario(
        "house", "echo", seed=SEED, owner_count=1,
        with_floor_tracking=False, anomalous_rate=0.0,
        config=config, fault_plan=fault_plan, tracing=True,
    )


def _speak(scenario: Scenario, rng_name: str, replay_from=None) -> float:
    """One utterance: the owner's own, or a replay played at a point."""
    env = scenario.env
    owner = scenario.owners[0]
    rng = env.rng.stream(rng_name)
    command = scenario.corpus.sample(rng)
    duration = full_utterance_duration(command, rng)
    utterance = owner.speak(command.text, duration)
    if replay_from is None:
        env.play_utterance(utterance, owner.device_position())
    else:
        env.play_utterance(replay_of(utterance, rng), replay_from)
    return duration


def _build_legit() -> Scenario:
    """Owner beside the speaker; one command, released."""
    scenario = _golden_scenario()
    env = scenario.env
    scenario.owners[0].teleport(
        env.testbed.speaker_room(0).center(height=0.0))
    duration = _speak(scenario, "golden.legit")
    env.sim.run_for(duration + 14.0)
    return scenario


def _build_blocked() -> Scenario:
    """Owner in the farthest room; a replay beside the speaker, blocked."""
    scenario = _golden_scenario()
    env = scenario.env
    far_room = max(
        env.testbed.plan.rooms.values(),
        key=lambda room: distance(room.center(height=1.2),
                                  env.speaker_beacon.position),
    )
    scenario.owners[0].teleport(far_room.center(height=0.0))
    attack_source = env.testbed.speaker_room(0).center(height=1.0)
    duration = _speak(scenario, "golden.blocked", replay_from=attack_source)
    env.sim.run_for(duration + 20.0)
    return scenario


def _build_degraded() -> Scenario:
    """Push outage: the first command warms the proximity cache live;
    the second finds every device offline and is granted degraded."""
    scenario = _golden_scenario(
        config=VoiceGuardConfig(proximity_cache_ttl=240.0),
        fault_plan=FaultPlan(seed=SEED, offline_windows=(offline_outage(*OUTAGE),)),
    )
    env = scenario.env
    scenario.owners[0].teleport(
        env.testbed.speaker_room(0).center(height=0.0))
    duration = _speak(scenario, "golden.degraded.warm")
    env.sim.run_for(duration + 14.0)
    # Into the outage: every push NACKs, the cache stands in.
    env.sim.run_for(OUTAGE[0] + 10.0 - env.sim.now)
    duration = _speak(scenario, "golden.degraded.hit")
    env.sim.run_for(duration + 14.0)
    return scenario


CASES = {
    "legit": _build_legit,
    "blocked": _build_blocked,
    "degraded": _build_degraded,
}


# ---------------------------------------------------------------------------
# Snapshot serialization
# ---------------------------------------------------------------------------

def _event_dict(event) -> dict:
    return {
        "window_id": event.window_id,
        "flow_id": event.flow_id,
        "speaker_ip": event.speaker_ip,
        "protocol": event.protocol,
        "opened_at": event.opened_at,
        "classification": event.classification.value if event.classification else None,
        "classified_at": event.classified_at,
        "classify_packet_count": event.classify_packet_count,
        "verdict": event.verdict.value if event.verdict else None,
        "verdict_at": event.verdict_at,
        "released_at": event.released_at,
        "discarded_at": event.discarded_at,
        "held_records": event.held_records,
        "rssi_reports": [repr(report) for report in event.rssi_reports],
    }


def _resilience_dict(event) -> dict:
    return {
        "type": event.type.value,
        "time": event.time,
        "window_id": event.window_id,
        "device_name": event.device_name,
        "attempt": event.attempt,
    }


def snapshot(scenario: Scenario) -> dict:
    """Everything a golden fixture pins, as plain JSON."""
    return {
        "spans": [span_to_dict(s) for s in scenario.env.obs.tracer.spans],
        "events": [_event_dict(e) for e in scenario.guard.log.events],
        "resilience": [_resilience_dict(e) for e in scenario.guard.log.resilience],
        "summary": scenario.guard.summary(),
    }


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace(name, update_goldens):
    scenario = CASES[name]()
    snap = snapshot(scenario)

    # Sanity-check the behaviour the fixture claims to capture, so a
    # regenerated golden can't silently encode the wrong outcome.
    commands = scenario.guard.log.commands()
    assert commands, f"golden case {name!r} produced no command window"
    last = commands[-1]
    if name == "legit":
        assert last.verdict is Verdict.LEGITIMATE
        assert last.released_at is not None
    elif name == "blocked":
        assert last.verdict is Verdict.MALICIOUS
        assert last.discarded_at is not None
    else:  # degraded
        assert last.verdict is Verdict.LEGITIMATE
        counts = scenario.guard.log.resilience_counts()
        assert counts.get("degraded_grant", 0) >= 1
        assert counts.get("device_offline", 0) >= 1

    path = GOLDEN_DIR / f"trace_{name}.json"
    text = json.dumps(snap, indent=2, sort_keys=True) + "\n"
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; run with --update-goldens"
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert json.loads(text) == expected


def test_disabled_tracing_event_stream_matches_golden(update_goldens):
    """A tracing-disabled run's event stream is byte-identical to the
    committed baseline — the no-op tracer provably changes nothing —
    and a tracing-enabled twin reproduces the same stream."""
    scenario = build_scenario(
        "house", "echo", seed=SEED, owner_count=1,
        with_floor_tracking=False, anomalous_rate=0.0, tracing=False,
    )
    env = scenario.env
    scenario.owners[0].teleport(env.testbed.speaker_room(0).center(height=0.0))
    duration = _speak(scenario, "golden.legit")
    env.sim.run_for(duration + 14.0)
    assert not scenario.env.obs.tracer.enabled
    assert len(scenario.env.obs.tracer) == 0
    stream = [_event_dict(e) for e in scenario.guard.log.events]

    path = GOLDEN_DIR / "events_baseline.json"
    text = json.dumps(stream, indent=2, sort_keys=True) + "\n"
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; run with --update-goldens"
    )
    assert json.loads(text) == json.loads(path.read_text(encoding="utf-8"))

    # The traced legit golden must carry the very same event stream.
    traced = json.loads((GOLDEN_DIR / "trace_legit.json").read_text(
        encoding="utf-8"))
    assert traced["events"] == json.loads(text)


def test_default_recognizer_and_identity_shim_match_golden():
    """The default record path and the identity morpher change nothing.

    The live guard's record policy is the signature recognizer itself,
    with nothing in between, and its tracing-off legit run reproduces
    ``events_baseline.json`` byte-for-byte.  The identity morpher, the
    base every offline morpher reshapes from, leaves each window's
    records and the default recognizer's verdict on them unchanged."""
    import numpy as np

    from repro.attacks.morphing import TrafficMorpher
    from repro.core.recognizers import (
        RECOGNIZERS, morph_sample, synth_windows)

    scenario = build_scenario(
        "house", "echo", seed=SEED, owner_count=1,
        with_floor_tracking=False, anomalous_rate=0.0, tracing=False,
    )
    guard = scenario.guard
    assert guard.proxy.record_policy == guard.recognition.observe
    env = scenario.env
    scenario.owners[0].teleport(env.testbed.speaker_room(0).center(height=0.0))
    duration = _speak(scenario, "golden.legit")
    env.sim.run_for(duration + 14.0)

    stream = [_event_dict(e) for e in guard.log.events]
    path = GOLDEN_DIR / "events_baseline.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(stream, sort_keys=True)) == expected

    recognizer = RECOGNIZERS["signature"]("echo")
    morpher = TrafficMorpher()
    rng = np.random.default_rng(2024)
    for sample in synth_windows("echo", np.random.default_rng(SEED), 8):
        shaped = morph_sample(sample, morpher, rng)
        assert shaped == sample
        assert (recognizer.predict_window(shaped.lengths, shaped.offsets)
                is recognizer.predict_window(sample.lengths, sample.offsets))

"""Attacker models (paper Sections II-B and III-B).

Each attacker produces :class:`~repro.audio.voiceprint.VoiceUtterance`
objects and plays them into the environment from some position.  The
gallery is two attackers.  :class:`ReplayAttack` replays recordings of
the owner from its library.  :class:`ClonedVoiceAttack` speaks arbitrary
commands in a cloned voice; its
:class:`~repro.audio.voiceprint.UtteranceSource` says how the clone
reaches the microphone — a loudspeaker (synthesis), an ultrasonic
carrier (inaudible), a laser, or a compromised playback device (remote
playback).  Both pass voice-match, and none of them can put the
owner's phone next to the speaker, which is the invariant VoiceGuard
checks.

:mod:`repro.attacks.morphing` models a different adversary class: an
on-path *traffic shaper* that attacks the guard's recognizer (not its
decision module) by reshaping the flow shape it fingerprints.
"""

from repro.attacks.base import Attack, AttackResult, ClonedVoiceAttack
from repro.attacks.morphing import (
    MORPHERS,
    DummyBurstMorpher,
    PadToFixedMorpher,
    RandomPadMorpher,
    TimingJitterMorpher,
    TrafficMorpher,
    create_morpher,
)
from repro.attacks.replay import ReplayAttack

__all__ = [
    "Attack",
    "AttackResult",
    "ClonedVoiceAttack",
    "DummyBurstMorpher",
    "MORPHERS",
    "PadToFixedMorpher",
    "RandomPadMorpher",
    "ReplayAttack",
    "TimingJitterMorpher",
    "TrafficMorpher",
    "create_morpher",
]

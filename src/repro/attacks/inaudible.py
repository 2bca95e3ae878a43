"""Inaudible (ultrasound) and laser injection attacks.

DolphinAttack-style attacks modulate a (cloned) voice command onto an
ultrasonic carrier that microphones demodulate through their
non-linearity; Light-Commands drives the MEMS microphone with an
amplitude-modulated laser.  Humans hear nothing, so the usual "the
owner would notice" argument fails — but the injected command still
produces speaker traffic, which is all VoiceGuard needs (Section IV-B
explains why the guard keys on traffic, not on the microphone).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack
from repro.audio.voiceprint import (
    UtteranceSource,
    VoicePrint,
    VoiceUtterance,
    synthesized_as,
)
from repro.home.environment import HomeEnvironment


class InaudibleAttack(Attack):
    """Ultrasonic-carrier injection of a cloned voice command.

    Needs a dedicated ultrasonic speaker within a few metres of the
    target; the payload rides a synthesized copy of the victim's voice
    so that voice-match (which only sees the demodulated audio) passes.
    """

    name = "inaudible"
    MAX_RANGE = 3.0  # ultrasonic attacks are short-range

    def __init__(
        self,
        env: HomeEnvironment,
        rng: np.random.Generator,
        victim: VoicePrint,
    ) -> None:
        super().__init__(env, rng)
        self.victim = victim

    def craft(self, text: str, duration: float) -> VoiceUtterance:
        """Synthesize the victim's voice on an ultrasonic carrier."""
        utterance = synthesized_as(self.victim, text, duration, self.rng)
        return VoiceUtterance(
            text=utterance.text,
            word_count=utterance.word_count,
            duration=utterance.duration,
            embedding=utterance.embedding,
            source=UtteranceSource.INAUDIBLE,
            speaker_label=utterance.speaker_label,
        )


class LaserAttack(Attack):
    """Light-commands injection through a window.

    The laser actuates the microphone directly; there is no acoustic
    audio at all (the embedding carries the modulated payload).  The
    paper cites this attack as a reason to avoid keyword-recognition
    sensors in the defense: the guard must observe traffic instead.
    """

    name = "laser"

    def __init__(
        self,
        env: HomeEnvironment,
        rng: np.random.Generator,
        victim: VoicePrint,
    ) -> None:
        super().__init__(env, rng)
        self.victim = victim

    def craft(self, text: str, duration: float) -> VoiceUtterance:
        """Modulate a cloned command onto the laser payload."""
        utterance = synthesized_as(self.victim, text, duration, self.rng)
        return VoiceUtterance(
            text=utterance.text,
            word_count=utterance.word_count,
            duration=utterance.duration,
            embedding=utterance.embedding,
            source=UtteranceSource.LASER,
            speaker_label=utterance.speaker_label,
        )

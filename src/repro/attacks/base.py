"""Attack interface and the cloned-voice attacker."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audio.voiceprint import UtteranceSource, VoicePrint, VoiceUtterance, synthesized_as
from repro.home.environment import HomeEnvironment
from repro.radio.geometry import Point


@dataclass
class AttackResult:
    """What happened when an attack was launched."""

    utterance: VoiceUtterance
    launched_at: float
    heard_by_speaker: bool


class Attack:
    """Base class: an attacker who can produce and play attack audio."""

    def __init__(self, env: HomeEnvironment, rng: np.random.Generator) -> None:
        self.env = env
        self.rng = rng

    def craft(self, text: str, duration: float) -> VoiceUtterance:
        """Produce the attack utterance for ``text``."""
        raise NotImplementedError

    def launch(self, text: str, duration: float, position: Point) -> AttackResult:
        """Play the attack audio at ``position`` right now."""
        utterance = self.craft(text, duration)
        heard = self.env.play_utterance(utterance, position)
        return AttackResult(
            utterance=utterance,
            launched_at=self.env.sim.now,
            heard_by_speaker=heard,
        )


class ClonedVoiceAttack(Attack):
    """Arbitrary commands in a TTS clone of the victim's voice.

    ``source`` says how the clone reaches the microphone — played
    through a loudspeaker (synthesis), on an ultrasonic carrier
    (inaudible), as a modulated laser (laser) or from a compromised
    playback device such as a smart TV (remote playback).  The audio is
    the same clone in every case; only the ground-truth label differs,
    because VoiceGuard never looks at how the audio was made.
    """

    def __init__(
        self,
        env: HomeEnvironment,
        rng: np.random.Generator,
        victim: VoicePrint,
        source: UtteranceSource,
    ) -> None:
        super().__init__(env, rng)
        self.victim = victim
        self.source = source

    def craft(self, text: str, duration: float) -> VoiceUtterance:
        """Clone the victim's voice saying ``text``."""
        return synthesized_as(self.victim, text, duration, self.rng, source=self.source)

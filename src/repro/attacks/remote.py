"""Remote attacks via compromised playback devices.

A compromised smart TV (or a malicious ad in a media stream) plays an
attack payload through its loudspeakers — the attacker never enters the
home (Section III-B's remote attacker).  The payload is typically a
synthesized or replayed owner's voice, so speaker-side defenses pass.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.audio.voiceprint import (
    UtteranceSource,
    VoicePrint,
    VoiceUtterance,
    synthesized_as,
)
from repro.home.environment import HomeEnvironment
from repro.radio.geometry import Point


class CompromisedPlaybackAttack(Attack):
    """A compromised playback device at a fixed position in the home."""

    name = "remote_playback"

    def __init__(
        self,
        env: HomeEnvironment,
        rng: np.random.Generator,
        victim: VoicePrint,
        device_position: Point,
        device_name: str = "smart-tv",
    ) -> None:
        super().__init__(env, rng)
        self.victim = victim
        self.device_position = device_position
        self.device_name = device_name

    def craft(self, text: str, duration: float) -> VoiceUtterance:
        """Synthesize the payload in the victim's voice."""
        utterance = synthesized_as(self.victim, text, duration, self.rng)
        return VoiceUtterance(
            text=utterance.text,
            word_count=utterance.word_count,
            duration=utterance.duration,
            embedding=utterance.embedding,
            source=UtteranceSource.REMOTE_PLAYBACK,
            speaker_label=utterance.speaker_label,
        )

    def launch_from_device(self, text: str, duration: float) -> AttackResult:
        """Play the payload from the compromised device's position."""
        return self.launch(text, duration, self.device_position)

"""Replay attack: play back a recording of the owner's voice.

The attacker records owner commands (scam calls, published clips,
in-person spying — Section III-B) and replays them through a portable
loudspeaker.  Voice-match accepts the audio because the embedding *is*
the owner's.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.attacks.base import Attack
from repro.audio.voiceprint import VoicePrint, VoiceUtterance, live_utterance, replay_of
from repro.errors import WorkloadError
from repro.home.environment import HomeEnvironment


class ReplayAttack(Attack):
    """Replays captured owner utterances."""

    def __init__(
        self,
        env: HomeEnvironment,
        rng: np.random.Generator,
        victim: VoicePrint,
    ) -> None:
        super().__init__(env, rng)
        self.victim = victim
        self._recordings: List[VoiceUtterance] = []

    def record_sample(self, text: str, duration: float) -> VoiceUtterance:
        """Capture one live owner utterance for later replay."""
        sample = live_utterance(text, duration, self.victim, self.rng)
        self._recordings.append(sample)
        return sample

    def capture(self, utterance: VoiceUtterance) -> None:
        """Add an overheard utterance to the attacker's library."""
        self._recordings.append(utterance)

    @property
    def library_size(self) -> int:
        """Number of captured recordings available for replay."""
        return len(self._recordings)

    def craft(self, text: str, duration: float) -> VoiceUtterance:
        """Replay a recording of ``text`` (recording it first if the
        attacker's library lacks it — pre-recorded per the threat model)."""
        for recording in self._recordings:
            if recording.text == text:
                return replay_of(recording, self.rng)
        if self.victim is None:
            raise WorkloadError("replay attacker has no recording and no victim access")
        return replay_of(self.record_sample(text, duration), self.rng)

"""Synthetic voiceprints and utterances.

Audio is modelled at the embedding level: each human speaker has a
fixed latent *voiceprint* vector, and every utterance carries a noisy
observation of the vector that produced it.  The transformations the
threat model cares about are explicit:

* a **live** utterance adds fresh articulation noise to the speaker's
  own voiceprint;
* a **replayed** utterance is a previously captured live observation
  passed through a playback channel (small additional channel noise) —
  the *embedding still matches the victim*, which is why voice-match
  protection fails against it (Section II-B1);
* a **synthesized** utterance is generated from collected samples of
  the victim, landing near the victim's voiceprint with a modest
  artifact term (Section III-B).

The guard never reads any of this; only the voice-match baseline does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

VOICEPRINT_DIM = 32
_LIVE_NOISE = 0.080  # articulation variation between a speaker's utterances
_REPLAY_CHANNEL_NOISE = 0.045  # loudspeaker + re-recording channel
_SYNTHESIS_ARTIFACT = 0.110  # TTS cloning residual


class UtteranceSource(enum.Enum):
    """Provenance of an utterance — ground truth for scoring."""

    LIVE_OWNER = "live_owner"
    LIVE_GUEST = "live_guest"
    REPLAY = "replay"
    SYNTHESIS = "synthesis"
    INAUDIBLE = "inaudible"  # ultrasound-modulated injection
    LASER = "laser"  # light-commands injection
    REMOTE_PLAYBACK = "remote_playback"  # compromised smart TV etc.

    @property
    def is_attack(self) -> bool:
        """Whether this provenance is part of the threat model."""
        return self not in (UtteranceSource.LIVE_OWNER, UtteranceSource.LIVE_GUEST)


@dataclass(frozen=True)
class VoicePrint:
    """A human speaker's latent voice identity."""

    speaker_name: str
    vector: np.ndarray

    @staticmethod
    def create(speaker_name: str, rng: np.random.Generator) -> "VoicePrint":
        """Draw a fresh unit-norm voiceprint for a speaker."""
        vector = rng.normal(0.0, 1.0, size=VOICEPRINT_DIM)
        vector = vector / np.linalg.norm(vector)
        return VoicePrint(speaker_name, vector)

    def observe(self, rng: np.random.Generator, noise: float = _LIVE_NOISE) -> np.ndarray:
        """A noisy live observation of this voiceprint."""
        sample = self.vector + rng.normal(0.0, noise, size=self.vector.shape)
        return sample / np.linalg.norm(sample)


@dataclass
class VoiceUtterance:
    """One spoken (or injected) audio event reaching a microphone."""

    text: str
    word_count: int
    duration: float
    embedding: Optional[np.ndarray]
    source: UtteranceSource
    speaker_label: str

    @property
    def is_attack(self) -> bool:
        """Whether the utterance came from an attacker."""
        return self.source.is_attack


def live_utterance(
    text: str,
    duration: float,
    voiceprint: VoicePrint,
    rng: np.random.Generator,
    source: UtteranceSource = UtteranceSource.LIVE_OWNER,
) -> VoiceUtterance:
    """A live human utterance by ``voiceprint``'s speaker."""
    return VoiceUtterance(
        text=text,
        word_count=len(text.split()),
        duration=duration,
        embedding=voiceprint.observe(rng),
        source=source,
        speaker_label=voiceprint.speaker_name,
    )


def replay_of(original: VoiceUtterance, rng: np.random.Generator) -> VoiceUtterance:
    """A recording of ``original`` replayed through a loudspeaker."""
    if original.embedding is None:
        raise ValueError("cannot replay an utterance without an embedding")
    channel = original.embedding + rng.normal(
        0.0, _REPLAY_CHANNEL_NOISE, size=original.embedding.shape
    )
    channel = channel / np.linalg.norm(channel)
    return VoiceUtterance(
        text=original.text,
        word_count=original.word_count,
        duration=original.duration,
        embedding=channel,
        source=UtteranceSource.REPLAY,
        speaker_label=original.speaker_label,
    )


def synthesized_as(
    victim: VoicePrint,
    text: str,
    duration: float,
    rng: np.random.Generator,
    source: UtteranceSource = UtteranceSource.SYNTHESIS,
) -> VoiceUtterance:
    """A TTS-cloned utterance impersonating ``victim`` saying ``text``,
    labelled with the ``source`` that carried it to the microphone."""
    artifact = victim.vector + rng.normal(0.0, _SYNTHESIS_ARTIFACT, size=victim.vector.shape)
    artifact = artifact / np.linalg.norm(artifact)
    return VoiceUtterance(
        text=text,
        word_count=len(text.split()),
        duration=duration,
        embedding=artifact,
        source=source,
        speaker_label=victim.speaker_name,
    )

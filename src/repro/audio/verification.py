"""Voice-match speaker verification (the commercial baseline).

Commercial smart speakers can be trained to recognize their owners'
voices during setup; the paper's threat model (Section III-B) assumes —
following the literature it cites — that replayed or synthesized owner
audio *passes* this check.  The verifier here reproduces that security
property: it enrolls a speaker from a handful of live samples and
scores new utterances by cosine similarity against the enrolled
centroid, which separates *different humans* well but cannot separate
the owner's live voice from a replay or a good clone of it (the
embeddings are, by construction of the threat model, nearly identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.audio.voiceprint import VoicePrint, VoiceUtterance

# Calibrated so that a different human is rejected but anything
# carrying the owner's voiceprint — live, replayed, or synthesized —
# is accepted, reproducing the vulnerability the paper exploits.
ACCEPT_THRESHOLD = 0.78
ENROLL_SAMPLES = 5  # live samples taken at setup


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of scoring one utterance."""

    score: float
    accepted: bool
    enrolled_speaker: str


class VoiceMatchVerifier:
    """Centroid + cosine-similarity speaker verification.

    This stands in for the GMM/i-vector verifiers cited by the paper;
    at the embedding level they share the decision geometry that
    matters here: acceptance is a similarity threshold around the
    enrolled identity, so any audio that *carries the owner's identity*
    — live, replayed, or cloned — is accepted.
    """

    def __init__(self) -> None:
        self._centroid: Optional[np.ndarray] = None
        self._speaker_name: Optional[str] = None

    @property
    def enrolled(self) -> bool:
        """Whether a speaker has been enrolled."""
        return self._centroid is not None

    def enroll(
        self,
        voiceprint: VoicePrint,
        rng: np.random.Generator,
    ) -> None:
        """Enroll a speaker from :data:`ENROLL_SAMPLES` live samples."""
        self.enroll_from_samples(
            voiceprint.speaker_name,
            [voiceprint.observe(rng) for _ in range(ENROLL_SAMPLES)],
        )

    def enroll_from_samples(self, speaker_name: str, samples: Sequence[np.ndarray]) -> None:
        """Enroll from embedding samples (the centroid of their
        directions)."""
        if not samples:
            raise ValueError("enrollment needs at least one sample")
        centroid = np.mean(np.asarray(samples), axis=0)
        self._centroid = centroid / np.linalg.norm(centroid)
        self._speaker_name = speaker_name

    def score(self, utterance: VoiceUtterance) -> float:
        """Cosine similarity between the utterance and the enrollment."""
        if self._centroid is None:
            raise RuntimeError("verifier has no enrolled speaker")
        if utterance.embedding is None:
            # Inaudible/laser injections carry no voice at all; they can
            # only pass if voice match is disabled.
            return -1.0
        return float(np.dot(self._centroid, utterance.embedding))

    def verify(self, utterance: VoiceUtterance) -> VerificationResult:
        """Score an utterance and apply the accept threshold."""
        score = self.score(utterance)
        assert self._speaker_name is not None
        return VerificationResult(
            score=score,
            accepted=score >= ACCEPT_THRESHOLD,
            enrolled_speaker=self._speaker_name,
        )

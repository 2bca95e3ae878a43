"""Speaking-duration model.

The paper assumes a normal human speech pace of 2 words per second
(citing wordcounter.net) and uses it to argue that RSSI verification
usually completes *while the user is still speaking* the command
(Figure 6).  The same constant drives every interaction timeline in the
reproduction: the spoken wake word, the command body, and the speaker's
spoken responses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.audio.commands import VoiceCommand

SPEECH_WORDS_PER_SECOND = 2.0
WAKE_WORD_DURATION = 0.55  # "Alexa" / "Hey Google" (amortized), seconds
POST_WAKE_PAUSE = 0.25  # brief gap between wake word and command body
# Relative standard deviation of the per-utterance pace: humans do not
# speak at a metronomic 2 words/s.
PACE_JITTER = 0.12


def speaking_duration(
    command: VoiceCommand,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Seconds needed to speak ``command`` after the wake word; ``rng``
    jitters the pace, clipped to 0.6-1.6 times the nominal one."""
    base = command.word_count / SPEECH_WORDS_PER_SECOND
    if rng is None:
        return base
    # ``rng.normal(1.0, PACE_JITTER)``, spelled as numpy computes it.
    factor = min(max(1.0 + PACE_JITTER * rng.standard_normal(), 0.6), 1.6)
    return base * factor


def full_utterance_duration(
    command: VoiceCommand,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Wake word + pause + command body, in seconds."""
    return WAKE_WORD_DURATION + POST_WAKE_PAUSE + speaking_duration(command, rng)


def response_segment_duration(words: int) -> float:
    """Seconds the speaker takes to speak a ``words``-word response
    segment (e.g. one NBA game schedule in the paper's Figure 3)."""
    if words <= 0:
        raise ValueError(f"response segment needs a positive word count, got {words!r}")
    return words / SPEECH_WORDS_PER_SECOND

"""Voice-command corpora.

The paper's authors crawled public command lists and collected 320
commonly used Alexa commands and 443 Google Assistant commands, then
used the word-count statistics to argue that the RSSI query usually
completes while the user is still speaking (Section V-A2).  We rebuild
corpora of the same sizes whose word-count distributions match the
reported statistics:

====================  =======  ===========  ====================
corpus                size     mean words   coverage
====================  =======  ===========  ====================
Alexa                 320      5.95         86.8 % have >= 4
Google Assistant      443      7.39         93.9 % have >= 5
====================  =======  ===========  ====================

Commands are generated from realistic intent templates; the exact
word-count histogram is fixed (not sampled) so the corpus statistics
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.sim.random import generator, pick

ALEXA_CORPUS_SIZE = 320
GOOGLE_CORPUS_SIZE = 443

# Word-count probability mass functions chosen to reproduce the paper's
# statistics exactly (see module docstring).  Keys are words-per-command.
_ALEXA_WORDCOUNT_PMF: Dict[int, float] = {
    2: 0.036, 3: 0.096, 4: 0.130, 5: 0.190, 6: 0.170,
    7: 0.140, 8: 0.100, 9: 0.070, 10: 0.050, 11: 0.018,
}
_GOOGLE_WORDCOUNT_PMF: Dict[int, float] = {
    3: 0.020, 4: 0.041, 5: 0.110, 6: 0.170, 7: 0.200,
    8: 0.170, 9: 0.120, 10: 0.110, 11: 0.040, 12: 0.019,
}

# Phrase-building material.  Commands are assembled as
# [verb phrase] [object phrase] [tail modifiers...] and trimmed/padded
# to an exact word count, yielding plausible smart-home requests.
_VERBS = [
    "turn on", "turn off", "play", "stop", "pause", "resume", "set",
    "dim", "brighten", "lock", "unlock", "open", "close", "start",
    "cancel", "add", "remove", "check", "tell me", "what is",
]
_OBJECTS = [
    "the living room lights", "the kitchen lights", "the bedroom lamp",
    "the thermostat", "the front door", "the garage door",
    "the security system", "the coffee maker", "my morning playlist",
    "some relaxing jazz music", "the weather forecast", "a timer",
    "an alarm", "my shopping list", "the news briefing",
    "tonight's basketball schedule", "my calendar for tomorrow",
    "the air conditioner", "the ceiling fan", "the tv volume",
]
_TAILS = [
    "please", "right now", "for ten minutes", "in the morning",
    "at seven pm", "to seventy two degrees", "before i leave",
    "when i get home", "on the patio", "for the party tonight",
    "every weekday", "as soon as possible", "at full volume",
    "in the kids room", "downstairs", "upstairs",
]
_FILLERS = ["please", "now", "today", "tonight", "again", "quickly"]


@dataclass(frozen=True)
class VoiceCommand:
    """One spoken command."""

    text: str
    assistant: str  # "alexa" | "google"

    @property
    def word_count(self) -> int:
        """Number of words in the command text."""
        return len(self.text.split())


class CommandCorpus:
    """A fixed list of commands with deterministic statistics."""

    def __init__(self, assistant: str, commands: Sequence[VoiceCommand]) -> None:
        self.assistant = assistant
        self.commands: List[VoiceCommand] = list(commands)
        if not self.commands:
            raise WorkloadError("a command corpus cannot be empty")

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)

    def __getitem__(self, index: int) -> VoiceCommand:
        return self.commands[index]

    def sample(self, rng: np.random.Generator) -> VoiceCommand:
        """Draw a uniformly random command."""
        return pick(rng, self.commands)

    def mean_word_count(self) -> float:
        """Average words per command."""
        return float(np.mean([c.word_count for c in self.commands]))

    def fraction_with_at_least(self, words: int) -> float:
        """Fraction of commands with >= ``words`` words."""
        hits = sum(1 for c in self.commands if c.word_count >= words)
        return hits / len(self.commands)


def _exact_counts(pmf: Dict[int, float], total: int) -> List[Tuple[int, int]]:
    """Convert a PMF into exact integer counts summing to ``total``.

    Largest-remainder apportionment keeps the realized histogram as
    close to the PMF as integer counts allow.
    """
    raw = [(words, pmf[words] * total) for words in sorted(pmf)]
    counts = {words: int(np.floor(quota)) for words, quota in raw}
    shortfall = total - sum(counts.values())
    remainders = sorted(raw, key=lambda item: item[1] - np.floor(item[1]), reverse=True)
    for words, _ in remainders[:shortfall]:
        counts[words] += 1
    return [(words, counts[words]) for words in sorted(counts)]


def _phrase_with_exact_words(words: int, rng: np.random.Generator) -> str:
    """Compose a plausible command with exactly ``words`` words."""
    parts: List[str] = []
    parts.extend(pick(rng, _VERBS).split())
    parts.extend(pick(rng, _OBJECTS).split())
    while len(parts) < words:
        pool = _TAILS if words - len(parts) > 1 else _FILLERS
        parts.extend(pick(rng, pool).split())
    return " ".join(parts[:words])


def _build_corpus(assistant: str, pmf: Dict[int, float], size: int, seed: int) -> CommandCorpus:
    rng = generator(seed)
    commands: List[VoiceCommand] = []
    for words, count in _exact_counts(pmf, size):
        for _ in range(count):
            commands.append(VoiceCommand(_phrase_with_exact_words(words, rng), assistant))
    # Shuffle so sequential sampling doesn't correlate with length.
    order = rng.permutation(len(commands))
    return CommandCorpus(assistant, [commands[i] for i in order])


_CACHE: Dict[str, CommandCorpus] = {}


def alexa_corpus() -> CommandCorpus:
    """The 320-command Alexa corpus (cached; deterministic)."""
    if "alexa" not in _CACHE:
        _CACHE["alexa"] = _build_corpus("alexa", _ALEXA_WORDCOUNT_PMF, ALEXA_CORPUS_SIZE, seed=20230627)
    return _CACHE["alexa"]


def google_corpus() -> CommandCorpus:
    """The 443-command Google Assistant corpus (cached; deterministic)."""
    if "google" not in _CACHE:
        _CACHE["google"] = _build_corpus("google", _GOOGLE_WORDCOUNT_PMF, GOOGLE_CORPUS_SIZE, seed=20230628)
    return _CACHE["google"]


def corpus_statistics(corpus: CommandCorpus) -> Dict[str, float]:
    """The statistics the paper reports for a corpus."""
    return {
        "size": float(len(corpus)),
        "mean_words": corpus.mean_word_count(),
        "frac_at_least_4": corpus.fraction_with_at_least(4),
        "frac_at_least_5": corpus.fraction_with_at_least(5),
    }

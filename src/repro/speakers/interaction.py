"""Voice-interaction traffic scripts.

:class:`EchoTrafficModel` converts a spoken command into the packet
schedule the Echo Dot emits: the activation spike (spike 1 in the
paper's Figure 3), small streaming packets while the user talks, the
audio-upload spike at the end of the command (spike 2), and — after the
cloud responds — one upload spike at the end of each spoken response
segment (spikes 3-5).  The per-spike length statistics implement the
paper's measured patterns, including the rare anomalous command spikes
that carry neither marker lengths nor a fixed pattern and therefore
evade the recognizer (the 2-in-134 misses of Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from repro.errors import ConfigError
from repro.sim.random import pick, uniform
from repro.speakers import signatures as sig


class RecordSpec(NamedTuple):
    """One application-data record to send: time offset + length."""

    offset: float  # seconds after the interaction's traffic starts
    length: int


@dataclass(frozen=True)
class ResponseSegment:
    """One spoken response segment (e.g. one NBA game schedule)."""

    words: int


@dataclass
class CommandPhaseScript:
    """Phase-1 traffic for one command."""

    records: List[RecordSpec]
    variant: str  # "marker" | "fixed" | "anomalous"

    @property
    def duration(self) -> float:
        """Offset of the phase's last record."""
        return self.records[-1].offset if self.records else 0.0


class EchoTrafficModel:
    """Generates Echo Dot interaction traffic.

    ``anomalous_rate`` is the probability that a command spike carries
    neither a marker length nor a fixed pattern; the paper's Table I
    measured roughly 1.5 % such spikes on randomly generated commands,
    and none during the scripted 7-day RSSI experiments.
    """

    ACTIVATION_GAP = (0.005, 0.020)  # spacing inside a spike
    SMALL_PACKET_GAP = (0.15, 0.35)  # streaming packets while speaking
    AUDIO_RATE = 3.0  # upload records per second of speech

    def __init__(
        self,
        rng: np.random.Generator,
        anomalous_rate: float = 0.015,
        marker_rate: float = 0.95,
    ) -> None:
        for name, rate in (("anomalous_rate", anomalous_rate), ("marker_rate", marker_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate!r}")
        self._rng = rng
        self.anomalous_rate = anomalous_rate
        self.marker_rate = marker_rate
        # Experiments can pin the response plan (e.g. Figure 3's
        # three-game NBA answer); None keeps the random distribution.
        self.forced_response_segments: Optional[List[int]] = None

    # -- phase 1 ------------------------------------------------------------
    def command_phase(self, speech_duration: float) -> CommandPhaseScript:
        """Traffic emitted from activation until the upload finishes."""
        rng = self._rng
        records: List[RecordSpec] = []
        variant = self._pick_variant()
        offset = 0.0

        # Activation spike (spike 1): five packets whose lengths encode
        # the phase-1 signature (or fail to, for anomalous spikes).
        for length in self._activation_lengths(variant):
            records.append(RecordSpec(offset, length))
            offset += uniform(rng, *self.ACTIVATION_GAP)

        # Small streaming packets while the user speaks.
        while offset < speech_duration:
            length = int(rng.integers(*sig.SMALL_RECORD_RANGE))
            records.append(RecordSpec(offset, length))
            offset += uniform(rng, *self.SMALL_PACKET_GAP)

        # Audio-upload spike (spike 2) right after speech ends.
        offset = speech_duration + uniform(rng, 0.03, 0.10)
        upload_count = max(4, int(round(speech_duration * self.AUDIO_RATE)))
        for _ in range(upload_count):
            length = int(rng.integers(*sig.AUDIO_RECORD_RANGE))
            records.append(RecordSpec(offset, length))
            offset += uniform(rng, 0.006, 0.015)

        return CommandPhaseScript(records=records, variant=variant)

    def _pick_variant(self) -> str:
        roll = float(self._rng.random())
        if roll < self.anomalous_rate:
            return "anomalous"
        if roll < self.anomalous_rate + (1.0 - self.anomalous_rate) * (1.0 - self.marker_rate):
            return "fixed"
        return "marker"

    def _activation_lengths(self, variant: str) -> List[int]:
        rng = self._rng
        first = self._first_packet_length()
        if variant == "fixed":
            pattern = pick(rng, sig.PHASE1_FIXED_PATTERNS)
            return [first, *pattern]
        filler = [pick(rng, sig.PHASE1_FILLER_POOL) for _ in range(4)]
        if variant == "marker":
            marker = pick(rng, sig.PHASE1_MARKERS)
            position = int(rng.integers(1, 5))
            lengths = [first, *filler]
            lengths[position] = marker
            return lengths
        # Anomalous: no markers, and avoid accidentally matching a
        # fixed pattern (filler pool choices could collide).
        lengths = [first, *filler]
        while tuple(lengths[1:5]) in sig.PHASE1_FIXED_PATTERNS:
            lengths[1 + int(rng.integers(0, 4))] = pick(rng, sig.PHASE1_FILLER_POOL)
        return lengths

    def _first_packet_length(self) -> int:
        if self._rng.random() < 0.5:
            return sig.PHASE1_COMMON_FIRST
        return int(self._rng.integers(*sig.PHASE1_FIRST_RANGE))

    # -- phase 2 ------------------------------------------------------------
    def response_plan(self) -> List[ResponseSegment]:
        """How many spoken segments the cloud's reply will contain.

        The distribution is skewed toward single-segment answers; the
        paper's Table I saw about 1.1 response spikes per invocation,
        while its Figure 3 example (three NBA schedules) had three.
        """
        if self.forced_response_segments is not None:
            return [ResponseSegment(words=w) for w in self.forced_response_segments]
        roll = float(self._rng.random())
        if roll < 0.90:
            count = 1
        elif roll < 0.98:
            count = 2
        else:
            count = 3
        return [ResponseSegment(words=int(self._rng.integers(6, 14))) for _ in range(count)]

    def response_spike(self) -> List[RecordSpec]:
        """The upload spike the Echo emits after speaking one segment."""
        rng = self._rng
        records: List[RecordSpec] = []
        offset = 0.0
        # A short prefix of ordinary packets may precede the marker pair;
        # the pair always completes within the first seven packets.
        prefix_len = int(rng.integers(0, 5)) if rng.random() < 0.9 else 5
        for _ in range(prefix_len):
            records.append(RecordSpec(offset, pick(rng, sig.PHASE2_PREFIX_POOL)))
            offset += uniform(rng, *self.ACTIVATION_GAP)
        for length in sig.PHASE2_MARKER_PAIR:
            records.append(RecordSpec(offset, length))
            offset += uniform(rng, *self.ACTIVATION_GAP)
        for _ in range(int(rng.integers(6, 18))):
            records.append(RecordSpec(offset, int(rng.integers(*sig.PHASE2_BODY_RANGE))))
            offset += uniform(rng, *self.ACTIVATION_GAP)
        return records


class GoogleTrafficModel:
    """Google Home Mini per-command traffic (single-phase).

    The Mini opens a fresh connection per command — TCP or QUIC
    depending on network conditions — uploads the audio, receives the
    response, and goes idle.  There are no response-phase upload spikes
    (Section IV-B), which is why any spike after idle is a command.
    """

    QUIC_PROBABILITY = 0.45
    AUDIO_RATE = 3.0

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def pick_transport(self) -> str:
        """Choose QUIC or TCP for the next session."""
        return "quic" if self._rng.random() < self.QUIC_PROBABILITY else "tcp"

    def command_upload(self, speech_duration: float) -> List[RecordSpec]:
        """Record schedule for one command upload."""
        rng = self._rng
        records: List[RecordSpec] = [RecordSpec(0.0, int(rng.integers(380, 520)))]
        offset = uniform(rng, 0.01, 0.03)
        while offset < speech_duration:
            records.append(RecordSpec(offset, int(rng.integers(900, 1400))))
            offset += uniform(rng, 0.10, 0.25)
        # Final burst when speech ends.
        for _ in range(max(3, int(speech_duration * 1.5))):
            records.append(RecordSpec(offset, int(rng.integers(900, 1400))))
            offset += uniform(rng, 0.006, 0.015)
        return records

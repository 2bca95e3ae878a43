"""Smart-speaker base class and interaction bookkeeping.

A :class:`SmartSpeaker` is a network host with a microphone: the home
environment delivers audible utterances to it, and the subclass turns
each one into cloud traffic.  The :class:`InteractionRecord` registry is
the experiments' ground truth — whether a command ultimately *executed*
at the cloud is what Tables II-IV score.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.audio.verification import VoiceMatchVerifier
from repro.audio.voiceprint import UtteranceSource, VoiceUtterance
from repro.home.environment import HomeEnvironment
from repro.net.addresses import IPv4Address
from repro.net.link import Host
from repro.net.tcp import TcpStack
from repro.radio.geometry import Point

class InteractionOutcome(enum.Enum):
    """What ultimately happened to a voice command."""

    PENDING = "pending"
    EXECUTED = "executed"  # command reached and was executed by the cloud
    BLOCKED = "blocked"  # traffic dropped; cloud never executed it
    REFUSED = "refused"  # speaker-side voice match rejected it


@dataclass
class InteractionRecord:
    """Ground-truth record of one voice command."""

    interaction_id: int
    text: str
    source: UtteranceSource
    speaker_label: str
    started_at: float
    speech_ends_at: float
    executed_at: Optional[float] = None
    responded_at: Optional[float] = None
    refused: bool = False
    aborted: bool = False
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def is_attack(self) -> bool:
        """Whether the command came from an attacker."""
        return self.source.is_attack

    @property
    def outcome(self) -> InteractionOutcome:
        """The command's final disposition."""
        if self.refused:
            return InteractionOutcome.REFUSED
        if self.executed_at is not None:
            return InteractionOutcome.EXECUTED
        if self.aborted:
            return InteractionOutcome.BLOCKED
        return InteractionOutcome.PENDING

    def settle(self) -> None:
        """Finalize: a command still pending after its experiment window
        closed was blocked (its packets never reached the cloud)."""
        if self.outcome is InteractionOutcome.PENDING:
            self.aborted = True


class SmartSpeaker(Host):
    """Base class for the Echo Dot and Google Home Mini models."""

    vendor = "generic"

    def __init__(
        self,
        name: str,
        ip: IPv4Address,
        env: HomeEnvironment,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(name, ip)
        self.env = env
        self.sim = env.sim
        self._rng = rng
        self.tcp_stack = TcpStack(self)
        self.interactions: Dict[int, InteractionRecord] = {}
        self.voice_match: Optional[VoiceMatchVerifier] = None
        self.on_interaction_started: Optional[Callable[[InteractionRecord], None]] = None
        # 2.4 GHz band occupancy: set while heavy audio upload runs.
        self.uploading_until = 0.0
        env.register_microphone(self.on_audio)
        env.wifi_busy_providers.append(self.is_uploading)

    def is_uploading(self) -> bool:
        """Whether the speaker is currently streaming audio upstream."""
        return self.sim.now < self.uploading_until

    # -- voice-match option (the commercial baseline protection) ----------
    def enable_voice_match(self, verifier: VoiceMatchVerifier) -> None:
        """Turn on the built-in voice recognition (Section I notes this
        protection exists but is circumvented by replay/synthesis)."""
        self.voice_match = verifier

    # -- microphone --------------------------------------------------------
    def on_audio(self, utterance: VoiceUtterance, source_point: Point) -> None:
        """Environment callback: an audible utterance reached the mics."""
        record = InteractionRecord(
            interaction_id=self.env.next_interaction_id(),
            text=utterance.text,
            source=utterance.source,
            speaker_label=utterance.speaker_label,
            started_at=self.sim.now,
            speech_ends_at=self.sim.now + utterance.duration,
        )
        self.interactions[record.interaction_id] = record
        if self.voice_match is not None and self.voice_match.enrolled:
            if not self.voice_match.verify(utterance).accepted:
                record.refused = True
                return
        if self.on_interaction_started:
            self.on_interaction_started(record)
        self._start_interaction(record, utterance)

    def _start_interaction(self, record: InteractionRecord, utterance: VoiceUtterance) -> None:
        raise NotImplementedError

    # -- registry helpers ----------------------------------------------------
    def mark_executed(self, interaction_id: int) -> None:
        """Cloud callback: the command executed."""
        record = self.interactions.get(interaction_id)
        if record is not None and record.executed_at is None:
            record.executed_at = self.sim.now

    def mark_responded(self, interaction_id: int) -> None:
        """The spoken response finished playing."""
        record = self.interactions.get(interaction_id)
        if record is not None:
            record.responded_at = self.sim.now

    def settle_all(self) -> List[InteractionRecord]:
        """Finalize every interaction and return them in start order."""
        records = sorted(self.interactions.values(), key=lambda r: r.started_at)
        for record in records:
            record.settle()
        return records

"""Voice Command Traffic Recognition (paper Section IV-B1).

The recognizer watches the client-side application-data records of each
proxied flow and groups them into *spike windows*: a window opens with
the first non-heartbeat record after an idle gap and absorbs records
until the gap reappears.  Windows are classified from their first few
packet lengths:

* **Echo Dot** — a window is a *command* (phase 1) if one of the marker
  lengths 138/75 appears among its first five packets, or its first
  packet is 250-650 bytes followed by one of three fixed patterns; it
  is a *response* (phase 2) if a 77-byte record immediately followed by
  a 33-byte record appears within the first seven packets; anything
  else is unknown and released.
* **Google Home Mini** — the connection is on-demand, so *any* spike
  after idle is a command.

Flows are matched to cloud servers two ways: DNS snooping, and — for
the Echo Dot, whose AVS server changes IP without DNS — the 16-packet
connection signature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.core.events import CommandEvent, GuardLog, TrafficClass
from repro.net.addresses import IPv4Address
from repro.net.packet import Packet, Protocol
from repro.net.proxy import ForwarderDecision, ProxiedFlow
from repro.obs.tracer import NULL_SPAN, Observability
from repro.sim.simulator import Simulator
from repro.speakers import signatures as sig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.recognizers import WindowRecognizer


# Seconds of (non-heartbeat) app-data silence that end a spike: the
# next record opens a new recognition window.
IDLE_GAP = 2.5
# Seconds of silence after which a window still short of
# PHASE2_MARKER_MAX_INDEX packets is classified from what it has.
CLASSIFICATION_TIMEOUT = 0.6


class SpeakerProfile(enum.Enum):
    """Which speaker's traffic grammar a client IP speaks."""

    ECHO = "echo"
    GOOGLE = "google"


# Members the per-record paths use, read once: on Python 3.11 reading a
# member off its enum class costs about 0.13 us, a global about 0.01.
_ECHO = SpeakerProfile.ECHO
_UDP = Protocol.UDP
_FORWARD = ForwarderDecision.FORWARD
_HOLD = ForwarderDecision.HOLD
_DROP = ForwarderDecision.DROP
# Window classifications whose records are not held.
_BENIGN = (TrafficClass.RESPONSE, TrafficClass.UNKNOWN)


@dataclass
class Window:
    """One spike window: consecutive records without an idle gap."""

    window_id: int
    flow: ProxiedFlow
    speaker_ip: IPv4Address
    opened_at: float
    last_packet_time: float
    lengths: List[int] = field(default_factory=list)
    # Arrival time of each record in ``lengths`` (sim seconds).  Fed to
    # pluggable window recognizers; never serialized into events or
    # golden fixtures, so recording them changes no baseline.
    offsets: List[float] = field(default_factory=list)
    classification: Optional[TrafficClass] = None
    classified_at: Optional[float] = None
    released: bool = False
    discarded: bool = False
    event: Optional[CommandEvent] = None
    # Observability: the per-window span tree (no-op objects when the
    # tracer is disabled, so downstream code stays unconditional).
    span: object = NULL_SPAN
    classify_span: object = NULL_SPAN
    hold_span: object = NULL_SPAN

    @property
    def pending(self) -> bool:
        """Whether the window is still unclassified."""
        return self.classification is None

    @property
    def resolved(self) -> bool:
        """Whether held records were released or discarded."""
        return self.released or self.discarded


@dataclass
class _FlowState:
    """A flow's recognition state, kept in ``ProxiedFlow.policy_state``
    so it ends when the proxy finishes the flow."""

    flow: ProxiedFlow
    prefix: List[int] = field(default_factory=list)
    window: Optional[Window] = None
    last_data_time: Optional[float] = None  # non-heartbeat app data
    signature_matched: bool = False
    signature_failed: bool = False


@dataclass
class _SpeakerState:
    profile: SpeakerProfile
    avs_ip: Optional[IPv4Address] = None
    avs_ip_source: Optional[str] = None  # "dns" | "signature"
    google_ips: Set[IPv4Address] = field(default_factory=set)


ClassifiedCallback = Callable[[Window, TrafficClass], None]


def classify_echo_lengths(lengths: List[int]) -> Optional[TrafficClass]:
    """Incremental Echo Dot phase classifier.

    Evidence is evaluated in *stream order* — exactly as a live
    recognizer sees packets — so whichever signal completes first wins:
    a marker length (138/75) within the first five packets, the 77->33
    pair within the first seven, or a fixed pattern completing at the
    fifth packet.  Returns ``None`` while undecidable and UNKNOWN once
    seven packets yield nothing.
    """
    low, high = sig.PHASE1_FIRST_RANGE
    head = lengths[: sig.PHASE2_MARKER_MAX_INDEX]
    for index, length in enumerate(head):
        if index < 5 and length in sig.PHASE1_MARKERS:
            return TrafficClass.COMMAND
        if index >= 1 and (head[index - 1], length) == sig.PHASE2_MARKER_PAIR:
            return TrafficClass.RESPONSE
        if (
            index == 4
            and low <= head[0] <= high
            and tuple(head[1:5]) in sig.PHASE1_FIXED_PATTERNS
        ):
            return TrafficClass.COMMAND
    if len(lengths) >= sig.PHASE2_MARKER_MAX_INDEX:
        return TrafficClass.UNKNOWN
    return None


def finalize_echo_lengths(lengths: List[int]) -> TrafficClass:
    """Classification when the spike ended early (fewer than 7 packets)."""
    decided = classify_echo_lengths(lengths)
    return decided if decided is not None else TrafficClass.UNKNOWN


class TrafficRecognition:
    """Per-speaker traffic recognizer over proxied flows."""

    def __init__(
        self,
        sim: Simulator,
        log: GuardLog,
        obs: Optional[Observability] = None,
    ) -> None:
        self.sim = sim
        self.log = log
        obs = obs or Observability()
        self.tracer = obs.tracer
        metrics = obs.metrics.scope("recognition")
        self._m_windows = metrics.counter("windows_opened")
        self._m_classified = {
            TrafficClass.COMMAND: metrics.counter("classified.command"),
            TrafficClass.RESPONSE: metrics.counter("classified.response"),
            TrafficClass.UNKNOWN: metrics.counter("classified.unknown"),
        }
        self._m_classify_packets = metrics.histogram(
            "classify_packets", edges=(1, 2, 3, 4, 5, 6, 7))
        self._m_classify_latency = metrics.histogram("classify_latency")
        self.on_classified: Optional[ClassifiedCallback] = None
        self._speakers: Dict[IPv4Address, _SpeakerState] = {}
        # Window ids are per-recognizer (not module-global) so repeated
        # runs in one process number their windows identically.
        self._last_window_id = 0  # not itertools.count: pool snapshots pickle it
        # Ablation knob: with signature tracking off, the guard only
        # learns AVS IPs from DNS and loses the server after silent
        # reconnects (the failure mode Section IV-B describes).
        self.use_signature_tracking = True
        # Pluggable per-profile window recognizers (see
        # repro.core.recognizers).  Empty by default: the built-in
        # signature matcher below runs byte-identically to before the
        # registry existed.  A learned recognizer abstains while the
        # spike is filling, so its windows settle through the existing
        # classification-timeout / idle-gap machinery via finalize().
        self.window_recognizers: Dict[SpeakerProfile, "WindowRecognizer"] = {}

    # -- setup ---------------------------------------------------------------
    def add_speaker(self, ip: IPv4Address, profile: SpeakerProfile) -> None:
        """Register a protected speaker's traffic grammar."""
        self._speakers[ip] = _SpeakerState(profile=profile)

    def speaker_state(self, ip: IPv4Address) -> Optional[_SpeakerState]:
        """Internal state for a speaker IP (None if unknown)."""
        return self._speakers.get(ip)

    def set_window_recognizer(self, profile: SpeakerProfile,
                              recognizer: "WindowRecognizer") -> None:
        """Install a pluggable recognizer for one speaker profile.

        Replaces the built-in signature matcher for every protected
        speaker with that profile; pass-through wiring otherwise stays
        identical (window lifecycle, holds, events).
        """
        self.window_recognizers[profile] = recognizer

    # -- DNS snooping ------------------------------------------------------------
    def observe_snoop(self, packet: Packet) -> None:
        """Inspect tapped datagrams for DNS answers (Figure 2's snooping)."""
        domain = packet.meta.get("dns_response")
        if domain is None:
            return
        answers = packet.meta.get("dns_answers") or []
        if not answers:
            return
        speaker = self._speakers.get(packet.dst.ip)
        if speaker is None:
            return
        if speaker.profile is SpeakerProfile.ECHO and domain == sig.AVS_DOMAIN:
            speaker.avs_ip = answers[0]
            speaker.avs_ip_source = "dns"
        elif speaker.profile is SpeakerProfile.GOOGLE and domain == sig.GOOGLE_DOMAIN:
            speaker.google_ips.add(answers[0])

    # -- main entry (the proxy's record policy) ------------------------------------
    def observe(self, flow: ProxiedFlow, packet: Packet) -> ForwarderDecision:
        """Classify one client record; returns the forwarding decision."""
        speaker = self._speakers.get(flow.client.ip)
        if speaker is None:
            return _FORWARD
        fs = flow.policy_state
        if fs is None:
            fs = flow.policy_state = _FlowState(flow=flow)
        now = self.sim._clock._now

        if speaker.profile is _ECHO:
            self._track_signature(speaker, fs, packet)
            relevant = speaker.avs_ip is not None and flow.server.ip == speaker.avs_ip
        else:
            relevant = flow.server.ip in speaker.google_ips
        if not relevant:
            return _FORWARD

        self._expire_stale_window(fs, now)
        heartbeat = packet.payload_len == sig.HEARTBEAT_LEN

        if fs.window is None:
            if heartbeat:
                return _FORWARD
            self._open_window(speaker, fs, packet, now)
            return self._window_action(fs.window)

        window = fs.window
        window.last_packet_time = now
        if not heartbeat:
            fs.last_data_time = now
        if window.pending and not heartbeat:
            window.lengths.append(packet.payload_len)
            window.offsets.append(now)
            self._try_classify(speaker, window)
        return self._window_action(window)

    def forwards_heartbeats(self, flow: ProxiedFlow) -> bool:
        """Whether :meth:`observe` forwards a heartbeat record on
        ``flow`` and changes nothing doing so: the flow's state exists,
        no window is open on it, and an Echo flow is done with signature
        tracking."""
        speaker = self._speakers.get(flow.client.ip)
        if speaker is None:
            return True
        fs = flow.policy_state
        if fs is None or fs.window is not None:
            return False
        return (speaker.profile is not _ECHO or fs.signature_matched
                or not self.use_signature_tracking)

    # -- window mechanics ------------------------------------------------------------
    def _next_window_id(self) -> int:
        self._last_window_id += 1
        return self._last_window_id

    def _open_window(self, speaker: _SpeakerState, fs: _FlowState, packet: Packet, now: float) -> None:
        window = Window(
            window_id=self._next_window_id(),
            flow=fs.flow,
            speaker_ip=fs.flow.client.ip,
            opened_at=now,
            last_packet_time=now,
        )
        window.event = self.log.add(CommandEvent(
            window_id=window.window_id,
            flow_id=fs.flow.flow_id,
            speaker_ip=str(fs.flow.client.ip),
            protocol=fs.flow.protocol.value,
            opened_at=now,
        ))
        window.span = self.tracer.begin(
            "command.window",
            window_id=window.window_id,
            flow_id=fs.flow.flow_id,
            speaker_ip=str(fs.flow.client.ip),
            protocol=fs.flow.protocol.value,
        )
        window.classify_span = self.tracer.begin(
            "recognition.classify", parent=window.span)
        # Records are parked from the very first packet of a pending
        # window, so the hold phase starts with the window itself.
        window.hold_span = self.tracer.begin("proxy.hold", parent=window.span)
        fs.window = window
        fs.last_data_time = now
        self._m_windows.inc()
        window.lengths.append(packet.payload_len)
        window.offsets.append(now)
        self._try_classify(speaker, window)
        if window.pending:
            self._schedule_pending_check(fs, window)

    def _window_action(self, window: Window) -> ForwarderDecision:
        if window.resolved:
            if window.discarded and window.flow.protocol is _UDP:
                # QUIC retransmits past a one-shot drop; keep dropping
                # the blocked flow's datagrams.
                return _DROP
            return _FORWARD
        if window.classification in _BENIGN:
            # Classified benign: the handler released held records in the
            # classification callback; current packet flows through.
            return _FORWARD
        # Pending, or a command awaiting its verdict: park everything.
        return _HOLD

    def _try_classify(self, speaker: _SpeakerState, window: Window) -> None:
        recognizer = self.window_recognizers.get(speaker.profile)
        if recognizer is not None:
            decided = recognizer.observe(window.lengths, window.offsets)
        elif speaker.profile is SpeakerProfile.GOOGLE:
            decided = TrafficClass.COMMAND
        else:
            decided = classify_echo_lengths(window.lengths)
        if decided is not None and window.pending:
            self._classify(window, decided)

    def _finalize_window(self, window: Window) -> TrafficClass:
        """Decide a window whose spike ended before an early decision."""
        speaker = self._speakers.get(window.speaker_ip)
        if speaker is not None:
            recognizer = self.window_recognizers.get(speaker.profile)
            if recognizer is not None:
                return recognizer.finalize(window.lengths, window.offsets)
        return finalize_echo_lengths(window.lengths)

    def _classify(self, window: Window, classification: TrafficClass) -> None:
        window.classification = classification
        window.classified_at = self.sim.now
        window.classify_span.finish(
            classification=classification.value, packets=len(window.lengths))
        window.span.set(classification=classification.value)
        self._m_classified[classification].inc()
        self._m_classify_packets.record(len(window.lengths))
        self._m_classify_latency.record(self.sim.now - window.opened_at)
        if window.event is not None:
            window.event.classification = classification
            window.event.classified_at = self.sim.now
            window.event.classify_packet_count = len(window.lengths)
        if self.on_classified is not None:
            self.on_classified(window, classification)

    def _schedule_pending_check(self, fs: _FlowState, window: Window) -> None:
        """Resolve windows whose spike ends before seven packets."""

        def check() -> None:
            if fs.window is not window or not window.pending:
                return
            idle = self.sim.now - window.last_packet_time
            remaining = CLASSIFICATION_TIMEOUT - idle
            if remaining <= 1e-6:
                self._classify(window, self._finalize_window(window))
            else:
                # Never reschedule closer than 1 ms: tiny float residues
                # would otherwise freeze simulated time in place.
                self.sim.post(max(remaining, 0.001), check)

        self.sim.post(CLASSIFICATION_TIMEOUT, check)

    def _expire_stale_window(self, fs: _FlowState, now: float) -> None:
        window = fs.window
        if window is None:
            return
        if now - window.last_packet_time > IDLE_GAP:
            if window.pending:
                # Spike ended without enough packets and the timer has
                # not fired yet; settle it before opening a new window.
                self._classify(window, self._finalize_window(window))
            fs.window = None

    # -- AVS signature tracking ------------------------------------------------------------
    def _track_signature(
        self, speaker: _SpeakerState, fs: _FlowState, packet: Packet
    ) -> None:
        if (not self.use_signature_tracking or fs.signature_matched
                or fs.signature_failed):
            return
        # Neither matched nor failed: the prefix is still shorter than
        # the signature.
        signature = sig.AVS_CONNECT_SIGNATURE
        prefix = fs.prefix
        prefix.append(packet.payload_len)
        index = len(prefix) - 1
        if prefix[index] != signature[index]:
            fs.signature_failed = True
        elif len(prefix) == len(signature):
            fs.signature_matched = True
            speaker.avs_ip = fs.flow.server.ip
            speaker.avs_ip_source = "signature"

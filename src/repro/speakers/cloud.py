"""Cloud backends: the AVS server, the Google server, and misc hosts.

Both command clouds enforce TLS record-sequence continuity on every
connection: a record arriving out of sequence (because the guard
discarded held records) triggers an alert and an orderly close —
exactly the mechanism of the paper's Figure 4, case III.  Command
*execution* only happens when the final command record arrives on an
intact session, which is the experiments' ground truth for blocking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Host
from repro.net.packet import Packet, Protocol, TlsRecordType
from repro.net.tcp import TcpConnection, TcpStack, TcpState
from repro.net.tls import TlsSession, TlsViolation
from repro.sim.random import uniform
from repro.speakers.signatures import HEARTBEAT_LEN

ALERT_RECORD_LEN = 31
DIRECTIVE_RECORD_LEN = 320
# Enum members read per record (see repro.net.tcp._ACK_FLAG).
_APPLICATION_DATA = TlsRecordType.APPLICATION_DATA
_ESTABLISHED = TcpState.ESTABLISHED

ExecuteCallback = Callable[[int], None]


@dataclass
class CloudStats:
    """Counters the experiments assert on."""

    records_received: int = 0
    heartbeats_answered: int = 0
    commands_executed: int = 0
    tls_violations: List[TlsViolation] = field(default_factory=list)
    sessions_opened: int = 0
    sessions_closed: int = 0


class _SessionState:
    def __init__(self) -> None:
        self.tls = TlsSession()
        self.dead = False


class AvsCloud(Host):
    """The Amazon AVS backend (``avs-alexa-4-na.amazon.com``).

    Responds to heartbeats, executes commands, and streams response
    audio whose segment plan the speaker then speaks (generating the
    paper's response-phase upload spikes).
    """

    PROCESSING_DELAY = (2.8, 4.5)  # command end -> response audio
    DIRECTIVE_DELAY = 0.025  # quick server acknowledgement (Figure 4)
    HEARTBEAT_REPLY_DELAY = 0.004

    def __init__(self, name: str, ip: IPv4Address, rng: np.random.Generator) -> None:
        super().__init__(name, ip)
        self.stack = TcpStack(self)
        self._rng = rng
        self.stats = CloudStats()
        self.on_execute: Optional[ExecuteCallback] = None
        self.on_session_closed: Optional[Callable[[str], None]] = None
        self._sessions: Dict[Tuple[Endpoint, Endpoint], _SessionState] = {}
        self.stack.listen(443, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        state = _SessionState()
        self._sessions[conn.four_tuple] = state
        self.stats.sessions_opened += 1
        # partial() over bound methods, not lambdas: the AVS session is
        # long-lived, and pickled world snapshots must rebind these
        # callbacks into the restored graph (pickle rejects lambdas; see
        # repro.experiments.pool).
        conn.on_record = partial(self._on_record, state)
        conn.on_close = partial(self._on_close, state)

    def _on_close(self, state: _SessionState, conn: TcpConnection, reason: str) -> None:
        self._sessions.pop(conn.four_tuple, None)
        self.stats.sessions_closed += 1
        if self.on_session_closed is not None:
            self.on_session_closed(reason)

    def _on_record(self, state: _SessionState, conn: TcpConnection, packet: Packet) -> None:
        if state.dead:
            return
        self.stats.records_received += 1
        # The clock is read directly, as on the TCP hot path: this runs
        # for every heartbeat of a seven-day timeline.
        violation = state.tls.accept_record(packet.tls_record_seq, conn._sim._clock._now)
        if violation is not None:
            # Record gap: the held packets were dropped by a middlebox.
            # Alert and close, as a real TLS stack would on a MAC failure.
            state.dead = True
            self.stats.tls_violations.append(violation)
            self._send(conn, state, ALERT_RECORD_LEN, TlsRecordType.ALERT)
            conn.close()
            return
        if packet.payload_len == HEARTBEAT_LEN and packet.meta.get("heartbeat"):
            self.stats.heartbeats_answered += 1
            self._schedule_send(conn, state, self.HEARTBEAT_REPLY_DELAY, HEARTBEAT_LEN,
                                _APPLICATION_DATA, {"heartbeat_ack": True})
            return
        if packet.meta.get("command_end"):
            interaction_id = int(packet.meta["interaction_id"])
            segments: List[int] = list(packet.meta.get("response_segments", []))
            self._execute(conn, state, interaction_id, segments)

    def _idle_session(self, conn: TcpConnection,
                      record_seq: int) -> Optional[_SessionState]:
        """``conn``'s session if it would accept a heartbeat carrying
        TLS record seq ``record_seq`` in sequence and answer it."""
        state = self._sessions.get(conn.four_tuple)
        if state is None or state.dead or state.tls.records_received != record_seq:
            return None
        return state

    def _answer_idle(self, state: _SessionState, heartbeats: int) -> None:
        """Account ``heartbeats`` heartbeats accepted and answered on
        ``state``'s session."""
        self.stats.records_received += heartbeats
        self.stats.heartbeats_answered += heartbeats
        state.tls.skip(sent=heartbeats, received=heartbeats)

    def _execute(
        self,
        conn: TcpConnection,
        state: _SessionState,
        interaction_id: int,
        segments: List[int],
    ) -> None:
        self.stats.commands_executed += 1
        if self.on_execute is not None:
            self.on_execute(interaction_id)
        # Quick directive acknowledgement (the reply the paper observes
        # ~40 ms after the command packets reach the cloud).
        self._schedule_send(conn, state, self.DIRECTIVE_DELAY, DIRECTIVE_RECORD_LEN,
                            _APPLICATION_DATA,
                            {"directive": True, "interaction_id": interaction_id})
        # Response audio after transcription + TTS.
        delay = uniform(self._rng, *self.PROCESSING_DELAY)
        meta = {"response_segments": segments, "interaction_id": interaction_id}
        burst = [int(self._rng.integers(700, 1400))
                 for _ in range(3 + 2 * max(len(segments), 1))]

        def send_response() -> None:
            if state.dead or not conn.is_established:
                return
            for index, length in enumerate(burst):
                record_meta = dict(meta) if index == 0 else {}
                self._schedule_send(conn, state, index * 0.01, length,
                                    _APPLICATION_DATA, record_meta)

        conn.sim.post(delay, send_response)

    # -- send helpers ------------------------------------------------------
    def _send(self, conn: TcpConnection, state: _SessionState, length: int,
              tls_type: TlsRecordType, meta: Optional[dict] = None) -> None:
        if conn.state is not _ESTABLISHED:
            return
        conn.send_record(length, tls_type, state.tls.next_send_seq(), meta)

    def _schedule_send(self, conn: TcpConnection, state: _SessionState, delay: float,
                       length: int, tls_type: TlsRecordType,
                       meta: Optional[dict] = None) -> None:
        conn._sim.post(delay, self._send, conn, state, length, tls_type, meta)


class GoogleCloud(Host):
    """The Google Assistant backend (``www.google.com``).

    Accepts on-demand TCP sessions and QUIC (UDP) flows.  Responses are
    a single audio burst; the Mini produces no upload spikes afterwards.
    """

    PROCESSING_DELAY = (2.6, 4.0)
    DIRECTIVE_DELAY = 0.025

    def __init__(self, name: str, ip: IPv4Address, rng: np.random.Generator) -> None:
        super().__init__(name, ip)
        self.stack = TcpStack(self)
        self._rng = rng
        self.stats = CloudStats()
        self.on_execute: Optional[ExecuteCallback] = None
        self._sessions: Dict[Tuple[Endpoint, Endpoint], _SessionState] = {}
        self.stack.listen(443, self._accept)
        self.register_udp_handler(443, self._on_datagram)

    # -- TCP side ------------------------------------------------------------
    def _accept(self, conn: TcpConnection) -> None:
        state = _SessionState()
        self._sessions[conn.four_tuple] = state
        self.stats.sessions_opened += 1
        conn.on_record = partial(self._on_record, state)
        conn.on_close = partial(self._on_tcp_close, state)

    def _on_tcp_close(self, state: _SessionState, conn: TcpConnection, reason: str) -> None:
        self._sessions.pop(conn.four_tuple, None)
        self.stats.sessions_closed += 1

    def _on_record(self, state: _SessionState, conn: TcpConnection, packet: Packet) -> None:
        if state.dead:
            return
        self.stats.records_received += 1
        violation = state.tls.accept_record(packet.tls_record_seq, conn.sim.now)
        if violation is not None:
            state.dead = True
            self.stats.tls_violations.append(violation)
            if conn.is_established:
                conn.send_record(ALERT_RECORD_LEN, TlsRecordType.ALERT,
                                 tls_record_seq=state.tls.next_send_seq())
            conn.close()
            return
        if packet.meta.get("command_end"):
            interaction_id = int(packet.meta["interaction_id"])
            self._execute_tcp(conn, state, interaction_id)

    def _execute_tcp(self, conn: TcpConnection, state: _SessionState, interaction_id: int) -> None:
        self.stats.commands_executed += 1
        if self.on_execute is not None:
            self.on_execute(interaction_id)

        def send(length: int, meta: dict) -> None:
            if state.dead or not conn.is_established:
                return
            conn.send_record(length, _APPLICATION_DATA, state.tls.next_send_seq(), meta)

        conn.sim.post(self.DIRECTIVE_DELAY, send, DIRECTIVE_RECORD_LEN,
                      {"directive": True, "interaction_id": interaction_id})
        delay = uniform(self._rng, *self.PROCESSING_DELAY)
        meta = {"response": True, "interaction_id": interaction_id}

        def send_response() -> None:
            for index in range(4):
                length = int(self._rng.integers(700, 1400))
                conn.sim.post(index * 0.01, send, length, meta if index == 0 else {})

        conn.sim.post(delay, send_response)

    # -- QUIC (UDP) side -------------------------------------------------------
    def _on_datagram(self, packet: Packet) -> None:
        self.stats.records_received += 1
        if not packet.meta.get("command_end"):
            return
        interaction_id = int(packet.meta["interaction_id"])
        self.stats.commands_executed += 1
        if self.on_execute is not None:
            self.on_execute(interaction_id)
        client = packet.src
        server = packet.dst

        def reply(length: int, meta: dict, delay: float) -> None:
            def do_send() -> None:
                self.send(Packet(
                    src=server, dst=client, protocol=Protocol.UDP,
                    payload_len=length, tls_type=_APPLICATION_DATA,
                    meta=meta,
                ))
            self.network.sim.post(delay, do_send)

        reply(DIRECTIVE_RECORD_LEN, {"directive": True, "interaction_id": interaction_id},
              self.DIRECTIVE_DELAY)
        delay = uniform(self._rng, *self.PROCESSING_DELAY)
        for index in range(4):
            length = int(self._rng.integers(700, 1400))
            meta = {"response": True, "interaction_id": interaction_id} if index == 0 else {}
            reply(length, meta, delay + index * 0.01)


class MiscCloud(Host):
    """A generic Amazon-side server (metrics, updates, NTP...).

    Exists so the Echo Dot's boot traffic contains connections whose
    signatures the guard must *not* confuse with the AVS signature.
    """

    def __init__(self, name: str, ip: IPv4Address) -> None:
        super().__init__(name, ip)
        self.stack = TcpStack(self)
        self.records_received = 0
        self.stack.listen(443, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        conn.on_record = self._on_record

    def _on_record(self, conn: TcpConnection, packet: Packet) -> None:
        self.records_received += 1

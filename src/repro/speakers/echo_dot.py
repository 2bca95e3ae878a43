"""The Amazon Echo Dot traffic model.

Reproduces the paper's measured behaviour (Section IV-B):

* on boot, DNS lookups and connections to several Amazon servers, each
  connection opening with its own packet-length signature;
* one long-lived AVS connection, heartbeating 41 bytes every 30 s;
* on disconnection, a reconnect to a possibly different AVS IP —
  *sometimes without any DNS query* (the device uses out-of-band
  endpoint knowledge), which is why the guard needs the connection
  signature to keep tracking the AVS server;
* two-phase voice-command traffic: activation spike + streaming +
  audio-upload spike, then one upload spike per spoken response
  segment.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

import numpy as np

from repro.audio.speech import response_segment_duration
from repro.audio.voiceprint import VoiceUtterance
from repro.errors import ConnectionClosedError
from repro.home.environment import HomeEnvironment
from repro.net.addresses import Endpoint, IPv4Address
from repro.net.dns import DnsClient
from repro.net.packet import TlsRecordType
from repro.net.tcp import TcpConnection, TcpState
from repro.net.tls import TlsSession
from repro.sim.process import DeadlineTimer
from repro.sim.random import uniform
from repro.speakers import idle
from repro.speakers import signatures as sig
from repro.speakers.base import InteractionRecord, SmartSpeaker
from repro.speakers.interaction import EchoTrafficModel

# Enum members read per record (see repro.net.tcp._ACK_FLAG).
_APPLICATION_DATA = TlsRecordType.APPLICATION_DATA
_ESTABLISHED = TcpState.ESTABLISHED


class EchoDot(SmartSpeaker):
    """Amazon Echo Dot: long-lived AVS connection, two-phase commands."""

    vendor = "amazon"
    ACTIVATION_LAG = 0.65  # wake-word detection -> first spike packet
    RECONNECT_DELAY = (0.4, 1.2)
    SIGNATURE_GAP = (0.005, 0.015)
    DNS_REQUERY_PROBABILITY = 0.5  # chance a reconnect is preceded by DNS

    def __init__(
        self,
        name: str,
        ip: IPv4Address,
        env: HomeEnvironment,
        rng: np.random.Generator,
        dns_server: Endpoint,
        avs_directory: Callable[[], IPv4Address],
        traffic_model: Optional[EchoTrafficModel] = None,
        misc_domains: Optional[List[str]] = None,
    ) -> None:
        super().__init__(name, ip, env, rng)
        self.dns = DnsClient(self, dns_server)
        self.avs_directory = avs_directory
        self.traffic = traffic_model or EchoTrafficModel(rng)
        self.misc_domains = list(misc_domains or [])
        self._conn: Optional[TcpConnection] = None
        self._tls: Optional[TlsSession] = None
        self._heartbeat_timer = None
        self._pending: List[tuple] = []  # interactions waiting for a connection
        self._reconnect_scheduled = False
        self.reconnect_count = 0
        self.dns_lookups_for_avs = 0
        # The connect-sequence lengths announced on every AVS
        # connection.  Mutable so experiments can model a firmware
        # update changing the signature (paper Section VII).
        self.connect_signature = tuple(sig.AVS_CONNECT_SIGNATURE)

    # -- lifecycle -----------------------------------------------------------
    def boot(self) -> None:
        """Initial DNS lookups and connections (paper boot sequence)."""
        self.dns_lookups_for_avs += 1
        self.dns.resolve(sig.AVS_DOMAIN, self._connect_avs)
        for domain in self.misc_domains:
            self.dns.resolve(domain, lambda ips, d=domain: self._touch_misc(d, ips))

    def _touch_misc(self, domain: str, ips: List[IPv4Address]) -> None:
        if not ips:
            return
        conn = self.tcp_stack.connect(Endpoint(ips[0], 443))
        tls = TlsSession()
        signature = sig.OTHER_AMAZON_SIGNATURES.get(domain, (64, 33, 500, 131))
        conn.on_established = partial(self._announce_misc, tls, signature)

    def _announce_misc(self, tls: TlsSession, signature: tuple,
                       conn: TcpConnection) -> None:
        offset = 0.0
        for length in signature:
            self.sim.post(offset, self._send_record, conn, tls, length, {})
            offset += uniform(self._rng, *self.SIGNATURE_GAP)
        self.sim.post(offset + uniform(self._rng, 2.0, 5.0), conn.close)

    def _connect_avs(self, ips: List[IPv4Address]) -> None:
        if not ips:
            return
        self._open_avs_connection(ips[0])

    def _open_avs_connection(self, ip: IPv4Address) -> None:
        self._reconnect_scheduled = False
        conn = self.tcp_stack.connect(Endpoint(ip, 443))
        tls = TlsSession()
        # The AVS connection is permanent state: its callbacks must be
        # partials/bound methods, which a pickled world snapshot rebinds
        # into the restored world (a lambda here cannot be pickled).
        conn.on_established = partial(self._on_avs_established, tls)
        conn.on_close = self._on_avs_close
        self._conn = conn
        self._tls = tls

    def _on_avs_established(self, tls: TlsSession, conn: TcpConnection) -> None:
        conn.on_record = self._on_avs_record
        # Announce with the connection signature.
        offset = 0.0
        for length in self.connect_signature:
            self.sim.post(offset, self._send_record, conn, tls, length, {})
            offset += uniform(self._rng, *self.SIGNATURE_GAP)
        self._schedule_heartbeat()
        # Flush interactions that arrived while disconnected.
        pending, self._pending = self._pending, []
        for record, utterance in pending:
            self._start_interaction(record, utterance)

    def _on_avs_close(self, conn: TcpConnection, reason: str) -> None:
        if conn is not self._conn:
            return
        self._conn = None
        self._tls = None
        self._cancel_heartbeat()
        if self._reconnect_scheduled:
            return
        self._reconnect_scheduled = True
        self.reconnect_count += 1
        delay = uniform(self._rng, *self.RECONNECT_DELAY)
        if self._rng.random() < self.DNS_REQUERY_PROBABILITY:
            self.sim.post(delay, self._requery_avs)
        else:
            # Reconnect using out-of-band endpoint knowledge: the guard
            # sees no DNS query and must rely on the signature.
            self.sim.post(delay, self._reconnect_out_of_band)

    def _requery_avs(self) -> None:
        self.dns_lookups_for_avs += 1
        self.dns.resolve(sig.AVS_DOMAIN, self._connect_avs)

    def _reconnect_out_of_band(self) -> None:
        self._open_avs_connection(self.avs_directory())

    @property
    def connected(self) -> bool:
        """Whether the AVS connection is established."""
        return self._conn is not None and self._conn.is_established

    # -- heartbeats ------------------------------------------------------------
    def _schedule_heartbeat(self) -> None:
        # ~20k heartbeats ride one deadline-bumping timer over a
        # seven-day run instead of a cancellable heap entry per beat.
        timer = self._heartbeat_timer
        if timer is None:
            timer = self._heartbeat_timer = DeadlineTimer(self.sim, self._heartbeat)
        timer.schedule_in(sig.HEARTBEAT_PERIOD)

    def _cancel_heartbeat(self) -> None:
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()

    def _heartbeat(self) -> None:
        # ``connected`` and ``schedule_in`` spelled out: this fires
        # every 30 s for a week.
        conn = self._conn
        if conn is not None and conn.state is _ESTABLISHED and self._tls is not None:
            sim = self.sim
            now = sim._clock._now
            # A quiet stretch of two periods or more goes in one step.
            if (sim._until - now >= 2.0 * sig.HEARTBEAT_PERIOD
                    and idle.advance_idle_periods(self)):
                return
            self._send_record(conn, self._tls, sig.HEARTBEAT_LEN, {"heartbeat": True})
            self._heartbeat_timer.schedule_at(now + sig.HEARTBEAT_PERIOD)

    # -- interactions ------------------------------------------------------------
    def _start_interaction(self, record: InteractionRecord, utterance: VoiceUtterance) -> None:
        if not self.connected:
            self._pending.append((record, utterance))
            return
        conn, tls = self._conn, self._tls
        speech_after_activation = max(utterance.duration - self.ACTIVATION_LAG, 0.5)
        script = self.traffic.command_phase(speech_after_activation)
        record.meta["traffic_variant"] = script.variant
        segments = [seg.words for seg in self.traffic.response_plan()]
        record.meta["response_segments"] = segments
        base = self.ACTIVATION_LAG
        # The Echo only saturates the band during the upload burst at
        # the end of the command (spike 2).
        self.sim.post(base + speech_after_activation, self._mark_upload_busy)
        last_index = len(script.records) - 1
        for index, (offset, length) in enumerate(script.records):
            meta = {}
            if index == last_index:
                meta = {
                    "command_end": True,
                    "interaction_id": record.interaction_id,
                    "response_segments": segments,
                }
            self.sim.post(base + offset, self._send_record, conn, tls, length, meta)

    def _on_avs_record(self, conn: TcpConnection, packet) -> None:
        meta = packet.meta
        if meta.get("response_segments") is not None and meta.get("interaction_id"):
            self._play_response(conn, int(meta["interaction_id"]),
                                list(meta["response_segments"]))

    def _play_response(self, conn: TcpConnection, interaction_id: int, segments: List[int]) -> None:
        """Speak each response segment, emitting the phase-2 upload
        spike at the end of each one (spikes 3-5 of Figure 3)."""
        elapsed = 0.0
        for words in segments:
            elapsed += response_segment_duration(words)
            spike = self.traffic.response_spike()
            for spec in spike:
                self.sim.post(elapsed + spec.offset, self._send_on_current, spec.length)
        self.sim.post(elapsed + 0.2, self.mark_responded, interaction_id)

    def _mark_upload_busy(self) -> None:
        self.uploading_until = max(self.uploading_until, self.sim.now + 0.6)

    def _send_on_current(self, length: int) -> None:
        if self.connected and self._tls is not None:
            self._send_record(self._conn, self._tls, length, {})

    # -- low-level send ------------------------------------------------------------
    def _send_record(self, conn: TcpConnection, tls: TlsSession, length: int, meta: dict) -> None:
        if conn.state is not _ESTABLISHED:
            return
        try:
            conn.send_record(length, _APPLICATION_DATA, tls.next_send_seq(), meta)
        except ConnectionClosedError:
            pass

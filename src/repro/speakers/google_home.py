"""The Google Home Mini traffic model.

Differences from the Echo Dot that matter to the guard (Section IV-B):

* the connection to ``www.google.com`` is *on-demand* — the TLS/QUIC
  session is only established after the speaker is invoked, and every
  session is preceded by a DNS query, so the guard can track the cloud
  endpoint without a connection signature;
* the transport switches between QUIC (UDP) and TCP with network
  conditions, so the Traffic Handler needs its UDP forwarder;
* there are no response-phase upload spikes: any spike after an idle
  period is a voice command.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

import numpy as np

from repro.audio.voiceprint import VoiceUtterance
from repro.errors import ConnectionClosedError, NetworkError
from repro.home.environment import HomeEnvironment
from repro.net.addresses import Endpoint, IPv4Address
from repro.net.dns import DnsClient
from repro.net.packet import TlsRecordType
from repro.net.tcp import TcpConnection
from repro.net.tls import TlsSession
from repro.net.udp import UdpFlow
from repro.sim.random import uniform
from repro.speakers import signatures as sig
from repro.speakers.base import InteractionRecord, SmartSpeaker
from repro.speakers.interaction import GoogleTrafficModel, RecordSpec

# Enum members read per record (see repro.net.tcp._ACK_FLAG).
_APPLICATION_DATA = TlsRecordType.APPLICATION_DATA
# QUIC source ports, taken in turn and wrapped like TCP's ephemerals.
_QUIC_FIRST_PORT = 52000
_QUIC_LAST_PORT = 65535


class GoogleHomeMini(SmartSpeaker):
    """Google Home Mini: on-demand sessions, single-phase commands."""

    vendor = "google"
    ACTIVATION_LAG = 0.7
    IDLE_CLOSE = (8.0, 12.0)  # TCP session lingers briefly, then closes

    def __init__(
        self,
        name: str,
        ip: IPv4Address,
        env: HomeEnvironment,
        rng: np.random.Generator,
        dns_server: Endpoint,
        traffic_model: Optional[GoogleTrafficModel] = None,
    ) -> None:
        super().__init__(name, ip, env, rng)
        self.dns = DnsClient(self, dns_server)
        self.traffic = traffic_model or GoogleTrafficModel(rng)
        self.sessions_opened = 0
        self.quic_sessions = 0
        # The next QUIC source port to try, per speaker: a world's ports
        # do not depend on what else ran in the process.
        self._next_udp_port = _QUIC_FIRST_PORT

    def boot(self) -> None:
        """The Mini does nothing on the wire until it is invoked."""

    # -- interactions ------------------------------------------------------------
    def _start_interaction(self, record: InteractionRecord, utterance: VoiceUtterance) -> None:
        transport = self.traffic.pick_transport()
        record.meta["transport"] = transport
        speech = max(utterance.duration - self.ACTIVATION_LAG, 0.5)
        script = self.traffic.command_upload(speech)
        # The Mini streams the audio continuously while the user talks,
        # occupying the 2.4 GHz band for the whole command.
        self.uploading_until = max(
            self.uploading_until, self.sim.now + self.ACTIVATION_LAG + speech + 0.6
        )

        # ``functools.partial`` over bound methods rather than closures,
        # so a world pickles for the scenario pool after a command too.
        self.sim.post(self.ACTIVATION_LAG * 0.5, self.dns.resolve, sig.GOOGLE_DOMAIN,
                      partial(self._on_resolved, record, transport, script))

    def _on_resolved(self, record: InteractionRecord, transport: str,
                     script: List[RecordSpec], ips: List[IPv4Address]) -> None:
        if not ips:
            return
        server = Endpoint(ips[0], 443)
        if transport == "quic":
            self._run_quic(record, server, script)
        else:
            self._run_tcp(record, server, script)

    def _on_cloud_packet(self, _channel, packet) -> None:
        """A record or datagram from the cloud: a response marks its
        interaction responded."""
        if packet.meta.get("response"):
            self.mark_responded(int(packet.meta["interaction_id"]))

    # -- TCP session ---------------------------------------------------------------
    def _run_tcp(self, record: InteractionRecord, server: Endpoint,
                 script: List[RecordSpec]) -> None:
        self.sessions_opened += 1
        conn = self.tcp_stack.connect(server)
        conn.on_established = partial(self._on_established, record, TlsSession(), script)
        conn.on_record = self._on_cloud_packet

    def _on_established(self, record: InteractionRecord, tls: TlsSession,
                        script: List[RecordSpec], conn: TcpConnection) -> None:
        last = len(script) - 1
        for index, spec in enumerate(script):
            meta = {}
            if index == last:
                meta = {"command_end": True, "interaction_id": record.interaction_id}
            self.sim.post(spec.offset, self._send_tcp, conn, tls, spec.length, meta)
        idle = script[last].offset + uniform(self._rng, *self.IDLE_CLOSE)
        self.sim.post(idle, self._close_if_open, conn)

    def _send_tcp(self, conn: TcpConnection, tls: TlsSession, length: int, meta: dict) -> None:
        if not conn.is_established:
            return
        try:
            conn.send_record(length, _APPLICATION_DATA, tls.next_send_seq(), meta)
        except ConnectionClosedError:
            pass

    @staticmethod
    def _close_if_open(conn: TcpConnection) -> None:
        if conn.is_established:
            conn.close()

    # -- QUIC session ---------------------------------------------------------------
    def _run_quic(self, record: InteractionRecord, server: Endpoint,
                  script: List[RecordSpec]) -> None:
        self.sessions_opened += 1
        self.quic_sessions += 1
        flow = UdpFlow(self, Endpoint(self.ip, self._free_udp_port()), server,
                       self._on_cloud_packet)
        # The session ends, and frees its port, after the idle timeout.
        flow.close_when_idle()
        last = len(script) - 1
        for index, spec in enumerate(script):
            meta = {}
            if index == last:
                meta = {"command_end": True, "interaction_id": record.interaction_id}
            self.sim.post(spec.offset, flow.send, spec.length,
                          _APPLICATION_DATA, meta)

    def _free_udp_port(self) -> int:
        """The next QUIC source port no open session holds."""
        for _ in range(_QUIC_LAST_PORT - _QUIC_FIRST_PORT + 1):
            port = self._next_udp_port
            self._next_udp_port = port + 1 if port < _QUIC_LAST_PORT else _QUIC_FIRST_PORT
            if port not in self._udp_handlers:
                return port
        raise NetworkError(f"no free QUIC port on {self.name}")

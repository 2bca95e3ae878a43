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

from typing import List, Optional

import numpy as np

from repro.audio.voiceprint import VoiceUtterance
from repro.errors import ConnectionClosedError
from repro.home.environment import HomeEnvironment
from repro.net.addresses import Endpoint, IPv4Address
from repro.net.dns import DnsClient
from repro.net.packet import TlsRecordType
from repro.net.tcp import TcpConnection
from repro.net.tls import TlsSession
from repro.net.udp import UdpFlow
from repro.speakers import signatures as sig
from repro.speakers.base import InteractionRecord, SmartSpeaker
from repro.speakers.interaction import GoogleTrafficModel, RecordSpec

# Enum members read per record (see repro.net.tcp._ACK_FLAG).
_APPLICATION_DATA = TlsRecordType.APPLICATION_DATA
_QUIC_FIRST_PORT = 52000


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
        # QUIC source ports, per speaker: a world's ports do not depend
        # on what else ran in the process.
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

        def on_resolved(ips: List[IPv4Address]) -> None:
            if not ips:
                return
            server = Endpoint(ips[0], 443)
            if transport == "quic":
                self._run_quic(record, server, script)
            else:
                self._run_tcp(record, server, script)

        self.sim.post(self.ACTIVATION_LAG * 0.5,
                      lambda: self.dns.resolve(sig.GOOGLE_DOMAIN, on_resolved))

    # -- TCP session ---------------------------------------------------------------
    def _run_tcp(self, record: InteractionRecord, server: Endpoint,
                 script: List[RecordSpec]) -> None:
        self.sessions_opened += 1
        conn = self.tcp_stack.connect(server)
        tls = TlsSession()

        def on_established(c: TcpConnection) -> None:
            last = len(script) - 1
            for index, spec in enumerate(script):
                meta = {}
                if index == last:
                    meta = {"command_end": True, "interaction_id": record.interaction_id}
                self.sim.post(spec.offset, self._send_tcp, c, tls, spec.length, meta)
            idle = script[last].offset + float(self._rng.uniform(*self.IDLE_CLOSE))
            self.sim.post(idle, self._close_if_open, c)

        def on_record(c: TcpConnection, packet) -> None:
            if packet.meta.get("response"):
                self.mark_responded(int(packet.meta["interaction_id"]))

        conn.on_established = on_established
        conn.on_record = on_record

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
        port = self._next_udp_port
        self._next_udp_port += 1

        def on_datagram(flow: UdpFlow, packet) -> None:
            if packet.meta.get("response"):
                self.mark_responded(int(packet.meta["interaction_id"]))

        flow = UdpFlow(self, Endpoint(self.ip, port), server, on_datagram)
        last = len(script) - 1
        for index, spec in enumerate(script):
            meta = {}
            if index == last:
                meta = {"command_end": True, "interaction_id": record.interaction_id}
            self.sim.post(spec.offset, flow.send, spec.length,
                          _APPLICATION_DATA, meta)

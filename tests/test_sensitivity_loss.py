"""WAN-loss robustness: TCP recovers from dropped packets, and the
guard pipeline keeps executing commands over a lossy WAN."""

from __future__ import annotations

from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Host, Network
from repro.net.tcp import TcpStack
from repro.sim.random import RngHub


class TestWanLoss:
    def test_tcp_recovers_under_loss(self, sim):
        network = Network(sim, RngHub(9), wan_loss=0.08)
        client_host = Host("client", IPv4Address("192.168.1.10"))
        server_host = Host("server", IPv4Address("54.1.1.1"))
        network.attach(client_host)
        network.attach(server_host)
        client = TcpStack(client_host)
        server = TcpStack(server_host)
        received = []
        server.listen(443, lambda c: setattr(
            c, "on_record", lambda _, p: received.append(p.payload_len)))
        conn = client.connect(Endpoint(server_host.ip, 443))
        sim.run_for(5.0)
        assert conn.is_established
        for seq in range(40):
            conn.send_record(100 + seq, tls_record_seq=seq)
        sim.run_for(60.0)
        assert received == [100 + seq for seq in range(40)]
        assert network.packets_lost > 0

    def test_guard_pipeline_survives_lossy_wan(self):
        from repro.audio.speech import full_utterance_duration
        from repro.experiments.scenarios import build_scenario
        from repro.speakers.base import InteractionOutcome

        scenario = build_scenario(
            "house", "echo", deployment=0, seed=141,
            owner_count=1, with_floor_tracking=False,
        )
        scenario.network.wan_loss = 0.03
        env = scenario.env
        owner = scenario.owners[0]
        owner.teleport(env.testbed.device_point(5).offset(dz=-1.0))
        executed = 0
        for index in range(5):
            rng = env.rng.stream(f"loss{index}")
            command = scenario.corpus.sample(rng)
            duration = full_utterance_duration(command, rng)
            env.play_utterance(owner.speak(command.text, duration),
                               owner.device_position())
            env.sim.run_for(duration + 25.0)
        for record in scenario.speaker.settle_all():
            if record.outcome is InteractionOutcome.EXECUTED:
                executed += 1
        assert executed >= 4  # loss may delay, must not systematically break
        assert scenario.network.packets_lost > 0

"""Unit tests for the TrafficHandler with a stubbed decision module."""

from __future__ import annotations

import itertools

import pytest

from repro.core.decision import DecisionResult, Verdict
from repro.core.events import CommandEvent, TrafficClass
from repro.core.handler import MAX_HOLD, TrafficHandler
from repro.core.recognition import Window
from repro.net.addresses import IPv4Address, endpoint
from repro.net.packet import Protocol
from repro.net.proxy import ProxiedFlow
from repro.obs.tracer import Observability

_ids = itertools.count(1)


class _StubProxy:
    def __init__(self):
        self.released = []
        self.discarded = []

    def release_held(self, flow):
        self.released.append(flow)
        return 3

    def discard_held(self, flow):
        self.discarded.append(flow)
        return 3


class _StubDecision:
    """Records contexts; resolves when told to."""

    def __init__(self):
        self.pending = []

    def decide(self, context, callback):
        self.pending.append((context, callback))

    def resolve(self, verdict):
        context, callback = self.pending.pop(0)
        callback(DecisionResult(verdict=verdict))


def make_window(protocol=Protocol.TCP) -> Window:
    flow = ProxiedFlow(
        flow_id=next(_ids), protocol=protocol,
        client=endpoint("192.168.1.200", 50000),
        server=endpoint("54.1.1.1", 443),
    )
    window = Window(
        window_id=next(_ids), flow=flow,
        speaker_ip=IPv4Address("192.168.1.200"),
        opened_at=0.0, last_packet_time=0.0,
    )
    window.event = CommandEvent(
        window_id=window.window_id, flow_id=flow.flow_id,
        speaker_ip="192.168.1.200", protocol=protocol.value, opened_at=0.0,
    )
    return window


def counters(obs: Observability) -> dict:
    return obs.metrics.snapshot()["counters"]


@pytest.fixture
def handler_world(sim):
    proxy = _StubProxy()
    decision = _StubDecision()
    obs = Observability()
    handler = TrafficHandler(sim=sim, proxy=proxy, decision=decision, obs=obs)
    return sim, handler, proxy, decision, obs


class TestHandlerResolution:
    def test_benign_windows_release_immediately(self, handler_world):
        sim, handler, proxy, decision, obs = handler_world
        window = make_window()
        handler.on_window_classified(window, TrafficClass.RESPONSE)
        assert window.released
        assert proxy.released == [window.flow]
        assert counters(obs)["proxy.benign_released"] == 1
        assert not decision.pending

    def test_unknown_windows_release_immediately(self, handler_world):
        sim, handler, proxy, decision, obs = handler_world
        window = make_window()
        handler.on_window_classified(window, TrafficClass.UNKNOWN)
        assert window.released

    def test_legitimate_verdict_releases(self, handler_world):
        sim, handler, proxy, decision, obs = handler_world
        window = make_window()
        handler.on_window_classified(window, TrafficClass.COMMAND)
        assert decision.pending and not window.resolved
        decision.resolve(Verdict.LEGITIMATE)
        assert window.released and not window.discarded
        assert counters(obs)["proxy.commands_released"] == 1
        assert window.event.verdict is Verdict.LEGITIMATE
        assert window.event.held_records == 3

    def test_malicious_verdict_discards(self, handler_world):
        sim, handler, proxy, decision, obs = handler_world
        window = make_window()
        handler.on_window_classified(window, TrafficClass.COMMAND)
        decision.resolve(Verdict.MALICIOUS)
        assert window.discarded and not window.released
        assert counters(obs)["proxy.commands_blocked"] == 1
        assert proxy.discarded == [window.flow]

    def test_timeout_fail_closed_discards(self, handler_world):
        sim, handler, proxy, decision, obs = handler_world
        window = make_window()
        handler.on_window_classified(window, TrafficClass.COMMAND)
        decision.resolve(Verdict.TIMEOUT)
        assert window.discarded

    def test_max_hold_failsafe_fires(self, handler_world):
        sim, handler, proxy, decision, obs = handler_world
        window = make_window()
        handler.on_window_classified(window, TrafficClass.COMMAND)
        sim.run_for(MAX_HOLD + 1.0)
        assert window.discarded  # fail-closed
        # A failsafe resolution is neither a release nor a block.
        assert counters(obs)["proxy.failsafe_resolutions"] == 1
        assert counters(obs)["proxy.commands_released"] == 0
        assert counters(obs)["proxy.commands_blocked"] == 0

    def test_late_verdict_after_failsafe_is_ignored(self, handler_world):
        sim, handler, proxy, decision, obs = handler_world
        window = make_window()
        handler.on_window_classified(window, TrafficClass.COMMAND)
        sim.run_for(MAX_HOLD + 1.0)
        decision.resolve(Verdict.LEGITIMATE)
        assert window.discarded and not window.released
        assert len(proxy.released) == 0
        assert counters(obs)["proxy.failsafe_resolutions"] == 1
        assert counters(obs)["proxy.commands_released"] == 0
        assert counters(obs)["proxy.commands_blocked"] == 0

    def test_udp_window_uses_forwarder(self, handler_world):
        # A UDP (QUIC) window's verdict goes to the proxy like any other.
        sim, handler, proxy, decision, obs = handler_world
        window = make_window(protocol=Protocol.UDP)
        handler.on_window_classified(window, TrafficClass.COMMAND)
        decision.resolve(Verdict.MALICIOUS)
        assert window.discarded
        assert proxy.discarded == [window.flow]
        assert window.event.held_records == 3

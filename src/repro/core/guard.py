"""The VoiceGuard façade: assembles and wires every sub-module.

Typical usage (see ``examples/quickstart.py`` for a full scenario):

.. code-block:: python

    guard = VoiceGuard(env, network, guard_ip)
    guard.protect(echo_dot, SpeakerProfile.ECHO)
    guard.register_device(phone, threshold=-8.0)
    guard.enable_floor_tracking(motion_sensor, trained_classifier)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import VoiceGuardConfig
from repro.core.decision import DecisionCoordinator, DecisionModule, RssiDecisionMethod
from repro.core.events import CommandEvent, GuardLog
from repro.core.floor import FloorLevelTracker, TraceClassifier
from repro.core.handler import TrafficHandler
from repro.core.recognition import SpeakerProfile, TrafficRecognition
from repro.core.registry import DeviceRegistry
from repro.home.devices import MobileDevice, MotionSensor
from repro.home.environment import HomeEnvironment
from repro.net.addresses import IPv4Address
from repro.net.link import Network
from repro.net.proxy import HoldBudget, TransparentProxy, UdpForwarder
from repro.speakers.base import SmartSpeaker


class VoiceGuard:
    """The deployed guard: proxy + recognizer + handler + decision."""

    def __init__(
        self,
        env: HomeEnvironment,
        network: Network,
        guard_ip: IPv4Address,
        config: Optional[VoiceGuardConfig] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.config = config or VoiceGuardConfig()
        self.log = GuardLog()
        self.obs = env.obs

        # Global byte budget over every hold queue: with N speakers'
        # commands in flight the guard parks records for all of them at
        # once, and memory must stay bounded.  The default (0 bytes =
        # unlimited) never refuses a hold, keeping single-command runs
        # byte-identical to the pre-concurrency pipeline.
        self.hold_budget = HoldBudget(limit_bytes=self.config.held_byte_budget,
                                      obs=self.obs)
        self.proxy = TransparentProxy("voiceguard", guard_ip, obs=self.obs,
                                      hold_budget=self.hold_budget)
        network.attach(self.proxy)
        self.udp_forwarder: Optional[UdpForwarder] = None

        self.registry = DeviceRegistry()
        self.floor_tracker: Optional[FloorLevelTracker] = None

        self.recognition = TrafficRecognition(env.sim, self.log, obs=self.obs)
        # The retry jitter draws from its own named stream: enabling
        # retries never perturbs any other component's randomness.
        self.rssi_method = RssiDecisionMethod(
            sim=env.sim,
            push=env.push,
            registry=self.registry,
            beacon=env.speaker_beacon,
            floor_check=self._floor_ok,
            push_retries=self.config.push_retries,
            proximity_cache_ttl=self.config.proximity_cache_ttl,
            retry_rng=env.rng.stream("decision.retry"),
            on_event=self.log.record_resilience,
            obs=self.obs,
        )
        # The coordinator schedules and batches concurrent queries; with
        # the default knobs (no slot limit, no batching) it dispatches
        # every query immediately — a pure pass-through.
        self.coordinator = DecisionCoordinator(
            self.rssi_method,
            sim=env.sim,
            max_inflight=self.config.max_concurrent_queries,
            batching=self.config.decision_batching,
            obs=self.obs,
        )
        self.decision = DecisionModule(self.coordinator)
        self.handler = TrafficHandler(
            sim=env.sim,
            proxy=self.proxy,
            decision=self.decision,
            obs=self.obs,
        )

        # Wiring: tapped packets -> recognizer -> handler -> proxy queues.
        self.proxy.record_policy = self.recognition.observe
        self.proxy.on_hold_overflow = self.handler.on_hold_overflow
        self.proxy.add_snooper(self.recognition.observe_snoop)
        self.recognition.on_classified = self.handler.on_window_classified

        self._protected: Dict[IPv4Address, SpeakerProfile] = {}

    # -- deployment ---------------------------------------------------------
    def protect(self, speaker: SmartSpeaker, profile: SpeakerProfile) -> None:
        """Interpose on ``speaker``'s traffic and recognize its grammar."""
        self.network.install_tap(speaker.ip, self.proxy)
        self.recognition.add_speaker(speaker.ip, profile)
        self._protected[speaker.ip] = profile
        if profile is SpeakerProfile.GOOGLE:
            if self.udp_forwarder is None:
                self.udp_forwarder = UdpForwarder(self.proxy, speaker.ip)
            else:
                self.udp_forwarder.add_covered(speaker.ip)

    def register_device(
        self,
        device: MobileDevice,
        threshold: float,
        approved_by_owner: bool = True,
        initial_floor: Optional[int] = None,
    ) -> None:
        """Enroll a legitimate user's phone/watch with its threshold.

        ``initial_floor`` seeds the floor tracker for devices enrolled
        *after* :meth:`enable_floor_tracking`; without it such a device
        is assumed to start on the speaker's floor, as every device
        enrolled before tracking was enabled is.
        """
        tracker = self.floor_tracker
        if tracker is not None and initial_floor is not None:
            tracker.check_floor(initial_floor)  # before anything is enrolled
        self.registry.register(device, threshold, approved_by_owner=approved_by_owner)
        if tracker is not None:
            tracker.track(device, initial_floor=initial_floor)

    def enable_floor_tracking(
        self,
        sensor: MotionSensor,
        classifier: TraceClassifier,
    ) -> FloorLevelTracker:
        """Attach the stair motion sensor and trace classifier.

        Devices enrolled so far are assumed to start on the speaker's
        floor."""
        tracker = FloorLevelTracker(
            sim=self.env.sim,
            beacon=self.env.speaker_beacon,
            classifier=classifier,
            speaker_floor=self.env.speaker_floor,
            floor_count=self.env.testbed.plan.floor_count,
            faults=self.env.faults,
            obs=self.obs,
        )
        for entry in self.registry.entries():
            tracker.track(entry.device)
        sensor.on_motion = tracker.on_motion
        self.floor_tracker = tracker
        return tracker

    def _floor_ok(self, device_name: str) -> bool:
        if self.floor_tracker is None:
            return True
        return self.floor_tracker.floor_ok(device_name)

    # -- reporting ------------------------------------------------------------
    @property
    def events(self) -> List[CommandEvent]:
        """A copy of every logged window event."""
        return list(self.log.events)

    def command_events(self) -> List[CommandEvent]:
        """Logged events classified as commands."""
        return self.log.commands()

    def summary(self) -> Dict[str, float]:
        """Counters: windows, commands, released, blocked, plus rates.

        The rates are 0.0 (not NaN) on a run that saw no commands, so
        downstream reporting never divides by zero.
        """
        commands = self.log.commands()
        metrics = self.obs.metrics
        released = float(metrics.counter("proxy.commands_released").value)
        blocked = float(metrics.counter("proxy.commands_blocked").value)
        total = float(len(commands))
        return {
            "windows": float(len(self.log)),
            "commands": total,
            "released": released,
            "blocked": blocked,
            "benign_released": float(metrics.counter("proxy.benign_released").value),
            "release_rate": released / total if total else 0.0,
            "block_rate": blocked / total if total else 0.0,
        }

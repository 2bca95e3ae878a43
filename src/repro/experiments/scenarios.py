"""Scenario builders: a fully wired testbed + speaker + guard world.

A :class:`Scenario` is everything one experiment run needs: the
physical environment, the home network with clouds and DNS, the smart
speaker under test, the owners with their calibrated devices, and the
installed VoiceGuard.  Builders take care of the setup the paper
describes: threshold calibration walks, device registration, speaker
boot, and (in the house) motion-sensor installation and trace-classifier
training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.audio.commands import CommandCorpus, VoiceCommand, alexa_corpus, google_corpus
from repro.audio.speech import full_utterance_duration
from repro.audio.voiceprint import replay_of
from repro.core.config import VoiceGuardConfig
from repro.core.floor import TraceClassifier, TraceFeatures
from repro.core.guard import VoiceGuard
from repro.core.recognition import SpeakerProfile
from repro.core.threshold import CalibrationResult, ThresholdCalibrator
from repro.errors import WorkloadError
from repro.faults.plan import FaultPlan
from repro.home.devices import MobileDevice, MotionSensor
from repro.home.environment import HomeEnvironment
from repro.home.person import Person
from repro.net.addresses import IPv4Address, endpoint
from repro.net.dns import DnsRecord, DnsServer
from repro.net.link import Network
from repro.radio.geometry import Point
from repro.radio.testbeds import Testbed, testbed_by_name
from repro.sim.random import uniform
from repro.speakers import signatures as sig
from repro.speakers.base import SmartSpeaker
from repro.speakers.cloud import AvsCloud, GoogleCloud, MiscCloud
from repro.speakers.echo_dot import EchoDot
from repro.speakers.google_home import GoogleHomeMini
from repro.speakers.interaction import EchoTrafficModel, GoogleTrafficModel

GUARD_IP = "192.168.1.50"
ECHO_IP = "192.168.1.200"  # the IP the paper shows in Figure 4
GOOGLE_IP = "192.168.1.201"
# Additional speakers (multi-speaker homes / loadtest) get IPs from here up.
EXTRA_SPEAKER_IP_BASE = 210
DNS_IP = "192.168.1.1"
AVS_IPS = ("54.239.28.85", "54.239.29.12", "52.94.236.48")
GOOGLE_CLOUD_IP = "142.250.65.68"
MISC_CLOUD_BASE = "52.46.130.{}"
AVS_ROTATE_PROBABILITY = 0.6
MISC_DOMAINS = 2  # other Amazon domains the primary Echo Dot talks to

SETTLE_TIME = 6.0  # sim-seconds for boot traffic to complete


@dataclass
class Scenario:
    """A wired experiment world."""

    name: str
    env: HomeEnvironment
    network: Network
    dns_server: DnsServer
    guard: VoiceGuard
    speaker: SmartSpeaker
    speaker_kind: str  # "echo" | "google"
    corpus: CommandCorpus
    owners: List[Person] = field(default_factory=list)
    devices: List[MobileDevice] = field(default_factory=list)
    calibrations: Dict[str, CalibrationResult] = field(default_factory=dict)
    avs_cloud: Optional[AvsCloud] = None
    google_cloud: Optional[GoogleCloud] = None
    avs_record: Optional[DnsRecord] = None
    motion_sensor: Optional[MotionSensor] = None
    trace_classifier: Optional[TraceClassifier] = None
    extra_speakers: List[SmartSpeaker] = field(default_factory=list)

    @property
    def sim(self):
        return self.env.sim

    def run_for(self, duration: float) -> None:
        self.env.sim.run_for(duration)

    def settle(self) -> None:
        """Give boot traffic time to finish."""
        self.env.sim.run_for(SETTLE_TIME)

    def draw_command(self, rng: np.random.Generator) -> Tuple[VoiceCommand, float]:
        """A command from the corpus and how long saying it takes; the
        command is drawn first, then its pace, both from ``rng``."""
        command = self.corpus.sample(rng)
        return command, full_utterance_duration(command, rng)

    def speak_command(self, rng: np.random.Generator,
                      replay_at: Optional[Point] = None) -> float:
        """The first owner says a drawn command, played at their device
        or, given ``replay_at``, replayed there (noise drawn from
        ``rng``); returns its duration."""
        owner = self.owners[0]
        command, duration = self.draw_command(rng)
        utterance = owner.speak(command.text, duration)
        if replay_at is None:
            self.env.play_utterance(utterance, owner.device_position())
        else:
            self.env.play_utterance(replay_of(utterance, rng), replay_at)
        return duration


def build_scenario(
    testbed_name: str,
    speaker_kind: str = "echo",
    deployment: int = 0,
    seed: int = 0,
    owner_count: int = 1,
    device_kind: Optional[str] = None,  # "smartphone" | "smartwatch"
    config: Optional[VoiceGuardConfig] = None,
    anomalous_rate: float = 0.004,
    calibrate: bool = True,
    with_floor_tracking: Optional[bool] = None,
    with_guard: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    tracing: bool = False,
    testbed: Optional[Testbed] = None,
    with_fault_injector: bool = False,
) -> Scenario:
    """Build a fully wired scenario.

    Defaults mirror the paper's 7-day experiments: scripted everyday
    commands (near-zero anomalous traffic), calibrated thresholds, and
    floor tracking wherever the testbed has stairs.  ``fault_plan``
    arms the environment's fault injector (see :mod:`repro.faults`);
    without one, every injection hook is a no-op.  ``tracing`` turns on
    span collection (``env.obs.tracer``); it never changes a run.
    ``testbed`` substitutes a pre-built (e.g. geometrically jittered)
    testbed for the named one; ``testbed_name`` still labels the run.
    Every call re-simulates the full set-up (calibration walks, boot,
    trace-classifier training); the scenario pool
    (:mod:`repro.experiments.pool`) is what amortizes it across homes.
    ``with_fault_injector`` forces an unarmed fault injector to exist
    even without a plan, so a pooled world can be re-armed per home
    (byte-identical to having none).
    """
    if speaker_kind not in ("echo", "google"):
        raise WorkloadError(f"unknown speaker kind {speaker_kind!r}")
    if testbed is None:
        testbed = testbed_by_name(testbed_name)
    env = HomeEnvironment(testbed, deployment=deployment, seed=seed,
                          fault_plan=fault_plan, tracing=tracing,
                          with_fault_injector=with_fault_injector)
    network = Network(env.sim, env.rng)

    dns_server = DnsServer("router-dns", IPv4Address(DNS_IP))
    network.attach(dns_server)

    scenario = Scenario(
        name=f"{testbed_name}/{speaker_kind}/loc{deployment + 1}",
        env=env,
        network=network,
        dns_server=dns_server,
        guard=None,  # type: ignore[arg-type]  # set below
        speaker=None,  # type: ignore[arg-type]
        speaker_kind=speaker_kind,
        corpus=alexa_corpus() if speaker_kind == "echo" else google_corpus(),
    )

    # -- clouds ---------------------------------------------------------
    if speaker_kind == "echo":
        _build_echo_side(scenario, anomalous_rate)
    else:
        _build_google_side(scenario)

    # -- guard ----------------------------------------------------------
    if with_guard:
        guard = VoiceGuard(env, network, IPv4Address(GUARD_IP), config=config)
        scenario.guard = guard
        profile = SpeakerProfile.ECHO if speaker_kind == "echo" else SpeakerProfile.GOOGLE
        guard.protect(scenario.speaker, profile)

    # -- owners and devices ------------------------------------------------
    speaker_room = testbed.speaker_room(deployment)
    watch = (device_kind or ("smartwatch" if testbed_name == "office" else "smartphone"))
    for index in range(owner_count):
        person = env.add_person(f"owner{index + 1}", speaker_room.center(height=0.0))
        if watch == "smartwatch":
            device = env.add_smartwatch(f"watch{index + 1}", person)
        else:
            device = env.add_smartphone(f"phone{index + 1}", person)
        scenario.owners.append(person)
        scenario.devices.append(device)

    # -- calibration + registration -----------------------------------------
    if calibrate:
        calibrator = ThresholdCalibrator(env)
        for device in scenario.devices:
            result = calibrator.calibrate(device, speaker_room)
            scenario.calibrations[device.name] = result
            if with_guard:
                scenario.guard.register_device(device, result.threshold)
    elif with_guard:
        for device in scenario.devices:
            scenario.guard.register_device(device, threshold=-8.0)

    # -- boot the speaker -----------------------------------------------------
    scenario.speaker.boot()
    scenario.settle()

    # -- floor tracking ----------------------------------------------------------
    wants_floor = (
        with_floor_tracking
        if with_floor_tracking is not None
        else testbed.stair_region is not None
    )
    if with_guard and wants_floor and testbed.stair_region is not None:
        classifier = train_trace_classifier(scenario)
        scenario.trace_classifier = classifier
        sensor = env.install_motion_sensor()
        scenario.motion_sensor = sensor
        scenario.guard.enable_floor_tracking(sensor, classifier)

    return scenario


# ---------------------------------------------------------------------------
# Speaker-specific wiring
# ---------------------------------------------------------------------------

class _SessionChurn:
    """Rotate the AVS DNS record after some session closes."""

    def __init__(self, rng, record: DnsRecord) -> None:
        self.rng = rng
        self.record = record

    def __call__(self, reason: str) -> None:
        if self.rng.random() < AVS_ROTATE_PROBABILITY:
            self.record.rotate()


def _build_echo_side(scenario: Scenario, anomalous_rate: float) -> None:
    env, network = scenario.env, scenario.network
    rng = env.rng.stream("cloud.avs")
    avs = AvsCloud("avs-cloud", IPv4Address(AVS_IPS[0]), rng)
    network.attach(avs)
    for ip in AVS_IPS[1:]:
        network.add_alias(avs, IPv4Address(ip))
    record = scenario.dns_server.add_record(
        sig.AVS_DOMAIN, [IPv4Address(ip) for ip in AVS_IPS]
    )
    scenario.avs_cloud = avs
    scenario.avs_record = record

    # Cloud-side IP churn: sessions often land on a different server.
    # A callable object (not a closure): the hook is permanent state on
    # the cloud, and pickled world snapshots must rebind its rng and
    # record references into the restored graph (pickle rejects closures).
    avs.on_session_closed = _SessionChurn(env.rng.stream("cloud.avs.rotate"), record)

    domains = list(sig.OTHER_AMAZON_SIGNATURES)[:MISC_DOMAINS]
    for index, domain in enumerate(domains):
        misc = MiscCloud(f"misc-{index}", IPv4Address(MISC_CLOUD_BASE.format(10 + index)))
        network.attach(misc)
        scenario.dns_server.add_record(domain, [misc.ip])

    speaker = EchoDot(
        "echo-dot",
        IPv4Address(ECHO_IP),
        env,
        env.rng.stream("speaker.echo"),
        dns_server=endpoint(DNS_IP, 53),
        avs_directory=record.current,
        traffic_model=EchoTrafficModel(
            env.rng.stream("speaker.echo.traffic"), anomalous_rate=anomalous_rate
        ),
        misc_domains=domains,
    )
    network.attach(speaker)
    avs.on_execute = speaker.mark_executed
    scenario.speaker = speaker


def _build_google_side(scenario: Scenario) -> None:
    env, network = scenario.env, scenario.network
    cloud = GoogleCloud("google-cloud", IPv4Address(GOOGLE_CLOUD_IP),
                        env.rng.stream("cloud.google"))
    network.attach(cloud)
    scenario.dns_server.add_record(sig.GOOGLE_DOMAIN, [cloud.ip])
    scenario.google_cloud = cloud

    speaker = GoogleHomeMini(
        "google-home-mini",
        IPv4Address(GOOGLE_IP),
        env,
        env.rng.stream("speaker.google"),
        dns_server=endpoint(DNS_IP, 53),
        traffic_model=GoogleTrafficModel(env.rng.stream("speaker.google.traffic")),
    )
    network.attach(speaker)
    cloud.on_execute = speaker.mark_executed
    scenario.speaker = speaker


class _ExecuteDispatch:
    """Route a cloud's execute callback to whichever speaker owns the
    interaction.

    One AVS cloud serves every Echo Dot in the home, but interaction
    records live on the speaker that heard the utterance (ids come from
    the world's one counter, so at most one speaker knows each id and
    the rest no-op).  A callable object, not a closure: the hook is permanent
    cloud state, and pickled world snapshots must rebind the speaker
    references into the restored graph (pickle rejects closures).
    """

    def __init__(self, speakers: List[SmartSpeaker]) -> None:
        self.speakers = speakers

    def __call__(self, interaction_id: int) -> None:
        for speaker in self.speakers:
            speaker.mark_executed(interaction_id)


def add_echo_speaker(scenario: Scenario, name: Optional[str] = None,
                     ip: Optional[str] = None) -> SmartSpeaker:
    """Add another Echo Dot to an existing echo scenario.

    The new speaker shares the home's AVS cloud and DNS but gets its own
    IP, its own RNG streams, and its own guard coverage — the concurrent
    multi-speaker setup the loadtest drives.  Every microphone hears
    every utterance, so one spoken command puts N command windows in
    flight at once.  The caller is responsible for booting settle time
    (``scenario.settle()``) after adding speakers.
    """
    if scenario.avs_cloud is None or scenario.avs_record is None:
        raise WorkloadError("add_echo_speaker needs an echo-based scenario")
    index = len(scenario.extra_speakers) + 1
    name = name or f"echo-dot-{index + 1}"
    ip = ip or f"192.168.1.{EXTRA_SPEAKER_IP_BASE + index - 1}"
    env, network = scenario.env, scenario.network
    speaker = EchoDot(
        name,
        IPv4Address(ip),
        env,
        env.rng.stream(f"speaker.{name}"),
        dns_server=endpoint(DNS_IP, 53),
        avs_directory=scenario.avs_record.current,
        traffic_model=EchoTrafficModel(env.rng.stream(f"speaker.{name}.traffic")),
        misc_domains=[],
    )
    network.attach(speaker)
    avs = scenario.avs_cloud
    if isinstance(avs.on_execute, _ExecuteDispatch):
        avs.on_execute.speakers.append(speaker)
    else:
        avs.on_execute = _ExecuteDispatch([scenario.speaker, speaker])
    scenario.extra_speakers.append(speaker)
    if scenario.guard is not None:
        scenario.guard.protect(speaker, SpeakerProfile.ECHO)
    speaker.boot()
    return speaker


def add_second_speaker(scenario: Scenario, speaker_kind: str = "google") -> SmartSpeaker:
    """Add another speaker to an existing scenario, guarded by the same
    VoiceGuard instance.

    The paper's Section V notes VoiceGuard handles multiple speakers by
    keying on each speaker's unique IP; this helper builds that setup
    (e.g. an Echo Dot and a Google Home Mini in one home).
    """
    if speaker_kind != "google":
        raise WorkloadError("only a Google Home Mini can be added as second speaker")
    if scenario.google_cloud is not None:
        raise WorkloadError("scenario already has a Google speaker")
    holder = Scenario(
        name=scenario.name + "+google",
        env=scenario.env,
        network=scenario.network,
        dns_server=scenario.dns_server,
        guard=scenario.guard,
        speaker=None,  # type: ignore[arg-type]
        speaker_kind="google",
        corpus=scenario.corpus,
    )
    _build_google_side(holder)
    scenario.google_cloud = holder.google_cloud
    if scenario.guard is not None:
        scenario.guard.protect(holder.speaker, SpeakerProfile.GOOGLE)
    return holder.speaker


# ---------------------------------------------------------------------------
# Trace-classifier training (the pre-recorded traces of Section V-B2)
# ---------------------------------------------------------------------------

# The paper's training protocol: 15 Up, 15 Down, 25 Route-1 traces
# (5 random-movement walks in each of 5 rooms), 10 each of Routes 2-3.
TRAINING_REPS = {
    "up": 15,
    "down": 15,
    "route1": 5,
    "route1_kitchen": 5,
    "route1_restroom": 5,
    "route1_bedroom_a": 5,
    "route1_bedroom_b": 5,
    "route2": 10,
    "route3": 10,
}

# Route-1 variants all train one class: "in-room movement".
ROUTE_CLASS = {name: ("route1" if name.startswith("route1") else name)
               for name in TRAINING_REPS}


def _sensor_trigger_offset(testbed: Testbed, route_name: str) -> float:
    """When the stair motion sensor would fire during a route walk.

    Training traces must be aligned the same way live traces are: the
    recording starts when the walker enters the sensor's region, not
    when the walk starts.  Routes that never enter the region (the
    confusable Routes 1-3 are recorded while a *guest* trips the
    sensor) start at zero.
    """
    region = testbed.stair_region
    route = testbed.routes[route_name]
    if region is None:
        return 0.0
    x0, y0, x1, y1 = region
    steps = 80
    for i in range(steps + 1):
        t = route.duration * i / steps
        p = route.position_at(t)
        if x0 <= p.x <= x1 and y0 <= p.y <= y1:
            return t
    return 0.0


def collect_route_features(
    scenario: Scenario,
    device: MobileDevice,
    route_name: str,
    repetitions: int,
) -> List[TraceFeatures]:
    """Walk ``route_name`` ``repetitions`` times recording traces.

    Advances the simulator; run during setup.  Recording starts at the
    moment the stair sensor would trigger, and the walker stands still
    at the route's end until the 8-second trace completes — matching
    how live traces are captured.
    """
    env = scenario.env
    route = scenario.env.testbed.routes[route_name]
    person = device.carrier
    base_offset = _sensor_trigger_offset(scenario.env.testbed, route_name)
    jitter_rng = env.rng.stream(f"training.trigger.{route_name}")
    features: List[TraceFeatures] = []
    return_point = person.position
    for _ in range(repetitions):
        done: List[TraceFeatures] = []

        def on_trace(samples: list) -> None:
            from repro.analysis.traces import RssiTrace

            trace = RssiTrace.from_samples(samples, label=route_name)
            done.append(TraceFeatures.from_fit(trace.fit()))

        person.follow(route)
        # The live sensor polls every 0.25 s, so live traces start up
        # to a poll period after region entry; train the same way.
        trigger_offset = base_offset + uniform(jitter_rng, 0.0, 0.3)
        tail = route.duration - trigger_offset + 9.5
        env.sim.run_for(trigger_offset)
        device.record_trace(env.speaker_beacon, on_trace)
        env.sim.run_for(tail)
        if not done:
            raise WorkloadError(f"trace recording for {route_name!r} never completed")
        features.append(done[0])
    person.teleport(return_point)
    return features


def train_trace_classifier(
    scenario: Scenario,
    device: Optional[MobileDevice] = None,
    repetitions: Optional[Dict[str, int]] = None,
) -> TraceClassifier:
    """Collect the paper's training traces and fit the classifier.

    The paper pre-records 15 Up, 15 Down, 25 Route-1, 10 Route-2 and
    10 Route-3 traces per (device, speaker, location) case.
    """
    device = device or scenario.devices[0]
    reps = dict(TRAINING_REPS)
    if repetitions:
        reps.update(repetitions)
    training: Dict[str, List[TraceFeatures]] = {}
    for route_name, count in reps.items():
        if route_name not in scenario.env.testbed.routes:
            continue
        label = ROUTE_CLASS.get(route_name, route_name)
        features = collect_route_features(scenario, device, route_name, count)
        training.setdefault(label, []).extend(features)
    classifier = TraceClassifier()
    classifier.fit(training)
    return classifier

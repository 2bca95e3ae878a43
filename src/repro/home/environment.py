"""The physical home environment.

:class:`HomeEnvironment` owns the *physical* world of one experiment:
the floor plan/testbed, the propagation model, the speaker's Bluetooth
beacon, the people, their mobile devices, the push service, and the
optional stair motion sensor.  Network hosts (speakers, clouds, guard)
are layered on top by the scenario builders in
:mod:`repro.experiments.scenarios`.

It also models the acoustic channel at the coarse level the threat
model needs: an utterance played at a position is heard by the speaker
if the source is in the same room (or an adjacent line-of-sight spot)
and close enough.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.audio.voiceprint import VoiceUtterance
from repro.errors import RadioError
from repro.faults.plan import FaultInjector, FaultPlan
from repro.home.devices import MobileDevice, MotionSensor, Smartphone, Smartwatch
from repro.home.person import Person
from repro.home.push import PushService
from repro.obs.tracer import Observability
from repro.radio.bluetooth import BluetoothBeacon
from repro.radio.geometry import Point, distance
from repro.radio.propagation import PropagationModel
from repro.radio.testbeds import Testbed
from repro.sim.random import RngHub
from repro.sim.simulator import Simulator

HEARING_RANGE = 8.0  # metres: in-room voice pickup limit
THROUGH_DOOR_RANGE = 6.0  # metres: pickup through an open doorway

MicrophoneListener = Callable[[VoiceUtterance, Point], None]


class HomeEnvironment:
    """Physical world shared by every component of one experiment."""

    def __init__(
        self,
        testbed: Testbed,
        deployment: int = 0,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        tracing: bool = False,
        with_fault_injector: bool = False,
    ) -> None:
        if not 0 <= deployment < len(testbed.speaker_locations):
            raise RadioError(
                f"testbed {testbed.name!r} has no deployment index {deployment}"
            )
        self.testbed = testbed
        self.deployment = deployment
        self.rng = RngHub(seed)
        self.sim = Simulator()
        # Metrics are always live (they cannot perturb a run); span
        # tracing is opt-in and a true no-op when off.
        self.obs = Observability(self.sim, tracing=tracing)
        # None unless a plan is active: components treat a missing
        # injector as "never inject", keeping fault-free runs pristine.
        # ``with_fault_injector`` forces an (unarmed, if planless)
        # injector to exist anyway — an unarmed injector answers every
        # query False without touching an RNG, so it is byte-identical
        # to having none, but it gives snapshot/restore worlds a live
        # object to re-arm per home (see FaultInjector.rearm).
        self.faults: Optional[FaultInjector] = (
            FaultInjector(self.sim, fault_plan)
            if (fault_plan is not None or with_fault_injector) else None
        )
        self.model = PropagationModel(
            testbed.plan, seed=self.rng.stream("radio.seed").integers(0, 2**31)
        )
        self.speaker_beacon = BluetoothBeacon(
            f"{testbed.name}-speaker", testbed.speaker_point(deployment)
        )
        self.push = PushService(self.sim, self.rng.stream("push.latency"),
                                faults=self.faults, obs=self.obs)
        self.persons: Dict[str, Person] = {}
        self.devices: Dict[str, MobileDevice] = {}
        self.motion_sensor: Optional[MotionSensor] = None
        self._microphones: List[MicrophoneListener] = []
        # 2.4 GHz coexistence: components report when they occupy the
        # band (speakers streaming audio); BLE scans slow down then.
        self.wifi_busy_providers: List[Callable[[], bool]] = []
        # One counter for every speaker in the world: a cloud's execute
        # callback routes by interaction id across all of them.
        self._interaction_count = 0

    def next_interaction_id(self) -> int:
        """A fresh interaction id, unique within this world (from 1)."""
        self._interaction_count += 1
        return self._interaction_count

    def wifi_busy(self) -> bool:
        """True while any registered component streams on 2.4 GHz."""
        return any(provider() for provider in self.wifi_busy_providers)

    # -- population ---------------------------------------------------------
    def add_person(self, name: str, start: Point, is_owner: bool = True) -> Person:
        """Create a resident or guest at ``start``."""
        if name in self.persons:
            raise RadioError(f"duplicate person {name!r}")
        person = Person(
            name, self.sim, self.rng.stream(f"person.{name}"), start, is_owner=is_owner
        )
        self.persons[name] = person
        return person

    def add_smartphone(self, name: str, carrier: Person) -> Smartphone:
        """Create a phone carried by ``carrier``."""
        return self._add_device(Smartphone(
            name, carrier, self.sim, self.model, self.rng.stream(f"device.{name}"),
            interference_provider=self.wifi_busy, faults=self.faults,
        ))

    def add_smartwatch(self, name: str, carrier: Person) -> Smartwatch:
        """Create a watch worn by ``carrier``."""
        return self._add_device(Smartwatch(
            name, carrier, self.sim, self.model, self.rng.stream(f"device.{name}"),
            interference_provider=self.wifi_busy, faults=self.faults,
        ))

    def _add_device(self, device: MobileDevice) -> MobileDevice:
        if device.name in self.devices:
            raise RadioError(f"duplicate device {device.name!r}")
        self.devices[device.name] = device
        return device

    def install_motion_sensor(self) -> MotionSensor:
        """Install the stair motion sensor (multi-floor testbeds)."""
        if self.testbed.stair_region is None:
            raise RadioError(f"testbed {self.testbed.name!r} has no stair region")
        self.motion_sensor = MotionSensor(
            "stair-motion",
            self.sim,
            self.testbed.stair_region,
            list(self.persons.values()),
            faults=self.faults,
        )
        self.motion_sensor.start()
        return self.motion_sensor

    # -- acoustics ------------------------------------------------------------
    def register_microphone(self, listener: MicrophoneListener) -> None:
        """Register a speaker's microphone; it receives audible utterances."""
        self._microphones.append(listener)

    def speaker_hears(self, source: Point) -> bool:
        """Whether audio played at ``source`` reaches the speaker's mics."""
        speaker = self.speaker_beacon.position
        d = distance(source, speaker)
        if self.testbed.plan.same_room(source, speaker):
            return d <= HEARING_RANGE
        # Through one open doorway: audible if close and no wall blocks.
        walls = self.testbed.plan.walls_crossed(source, speaker)
        floors = self.testbed.plan.floors_crossed(source, speaker)
        return walls == 0 and floors == 0 and d <= THROUGH_DOOR_RANGE

    def play_utterance(self, utterance: VoiceUtterance, source: Point) -> bool:
        """Emit audio at ``source``; returns True if a speaker heard it.

        Delivery to the microphone happens after the utterance has been
        fully spoken (the wake word triggers streaming earlier, but the
        interaction model consumes whole utterances).
        """
        if not self.speaker_hears(source):
            return False
        for microphone in self._microphones:
            microphone(utterance, source)
        return True

    # -- convenience ------------------------------------------------------------
    @property
    def speaker_floor(self) -> int:
        """The storey the speaker sits on."""
        return self.testbed.plan.floor_of(self.speaker_beacon.position)

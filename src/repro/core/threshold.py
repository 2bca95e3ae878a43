"""The RSSI-threshold calibration app (paper Section IV-C).

The user switches the app on, walks around the speaker's room (e.g.
along the walls), and the app samples the speaker's Bluetooth RSSI
every 0.5 s; when the walk ends, the minimum of the measured values
becomes the device's RSSI threshold.  Everywhere the user could stand
in the room therefore reads at or above the threshold, while other
rooms — behind walls or floors — read below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigError
from repro.home.devices import MobileDevice
from repro.home.environment import HomeEnvironment
from repro.radio.floorplan import Room
from repro.radio.geometry import Point
from repro.radio.testbeds import WalkRoute

SAMPLE_PERIOD = 0.5  # the app samples every 0.5 s


def perimeter_route(room: Room, inset: float = 0.5, laps: int = 1,
                    speed: float = 1.0) -> WalkRoute:
    """A walking route along the room's walls, ``inset`` metres in."""
    x0, y0 = room.x0 + inset, room.y0 + inset
    x1, y1 = room.x1 - inset, room.y1 - inset
    if x0 >= x1 or y0 >= y1:
        raise ConfigError(f"room {room.name!r} is too small for inset {inset}")
    z = room.z_floor
    corners = [Point(x0, y0, z), Point(x1, y0, z), Point(x1, y1, z), Point(x0, y1, z)]
    waypoints = []
    for _ in range(laps):
        waypoints.extend(corners)
    waypoints.append(corners[0])
    length = laps * 2.0 * ((x1 - x0) + (y1 - y0))
    return WalkRoute(f"calibrate-{room.name}", waypoints, duration=length / speed)


@dataclass
class CalibrationResult:
    """Outcome of one calibration walk."""

    device_name: str
    room_name: str
    threshold: float
    samples: List[float] = field(default_factory=list)

    @property
    def sample_count(self) -> int:
        """Number of samples taken during the walk."""
        return len(self.samples)


class ThresholdCalibrator:
    """Runs the calibration walk inside the simulation.

    Note: :meth:`calibrate` *advances the simulator* by the duration of
    the walk; run calibrations during experiment setup, before any
    traffic of interest.
    """

    def __init__(self, env: HomeEnvironment) -> None:
        self.env = env

    def calibrate(
        self,
        device: MobileDevice,
        room: Room,
        laps: int = 1,
        inset: float = 0.5,
    ) -> CalibrationResult:
        """Walk ``device``'s carrier around ``room`` and compute the
        threshold as the minimum sampled RSSI."""
        route = perimeter_route(room, inset=inset, laps=laps)
        carrier = device.carrier
        return_point = carrier.position
        carrier.follow(route)
        samples: List[float] = []
        end_time = self.env.sim.now + route.duration
        while self.env.sim.now < end_time:
            samples.append(device.instant_rssi(self.env.speaker_beacon))
            self.env.sim.run_until(min(self.env.sim.now + SAMPLE_PERIOD, end_time))
        carrier.teleport(return_point)
        if not samples:
            raise ConfigError("calibration walk produced no samples")
        return CalibrationResult(
            device_name=device.name,
            room_name=room.name,
            threshold=min(samples),
            samples=samples,
        )

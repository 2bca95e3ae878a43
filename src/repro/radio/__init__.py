"""Bluetooth RF substrate: geometry, floor plans, propagation, testbeds.

The Decision Module's only physical input is the smart speaker's
Bluetooth RSSI as measured at the owner's phone or watch.  This package
provides the physics behind that scalar:

* :mod:`repro.radio.geometry` — 3-D points and wall-crossing tests;
* :mod:`repro.radio.floorplan` — rooms, walls with door openings,
  multi-floor buildings, and numbered measurement grids;
* :mod:`repro.radio.propagation` — log-distance path loss with per-wall
  and per-floor attenuation, static spatial shadowing and per-sample
  measurement noise, on the paper's app-reported RSSI scale
  (0 near the speaker down to roughly -30 across floors);
* :mod:`repro.radio.bluetooth` — beacon/scanner pair with scan latency;
* :mod:`repro.radio.testbeds` — the paper's three evaluation sites
  (two-floor house, two-bedroom apartment, office) with the same
  measurement-point counts (78 / 54 / 70) and two speaker deployment
  locations each.
"""

from repro.radio.bluetooth import BluetoothBeacon, BluetoothScanner, RssiSample
from repro.radio.floorplan import Door, FloorPlan, MeasurementPoint, Room, Wall
from repro.radio.geometry import Point, distance, segment_crosses_wall
from repro.radio.propagation import PropagationModel
from repro.radio.testbeds import (
    Testbed,
    apartment_testbed,
    house_testbed,
    office_testbed,
    testbed_by_name,
)

__all__ = [
    "BluetoothBeacon",
    "BluetoothScanner",
    "Door",
    "FloorPlan",
    "MeasurementPoint",
    "Point",
    "PropagationModel",
    "Room",
    "RssiSample",
    "Testbed",
    "Wall",
    "apartment_testbed",
    "distance",
    "house_testbed",
    "office_testbed",
    "segment_crosses_wall",
    "testbed_by_name",
]

"""VoiceGuard: the paper's contribution.

The guard runs on a general-purpose device inline between the smart
speaker(s) and the home router (paper Figure 2).  It is assembled from:

* :mod:`repro.core.recognition` — the Voice Command Traffic Recognition
  sub-module: spike windows over app-data packet metadata, the Echo's
  phase-1/phase-2 length classifier, AVS-server tracking by DNS snoop
  *and* connection signature, Google-flow tracking by DNS;
* :mod:`repro.core.handler` — the Traffic Handler sub-module: holds a
  suspected command's records in the transparent proxy, releases them
  on a legitimate verdict, discards them otherwise;
* :mod:`repro.core.decision` — the Decision Module framework and its
  Bluetooth-RSSI method (push a measurement request to every registered
  device; legitimate iff any device is above its threshold and on the
  speaker's floor);
* :mod:`repro.core.registry` — the multi-user device registry;
* :mod:`repro.core.floor` — the floor-level tracker driven by stair
  motion events and RSSI trace regression (Figure 10);
* :mod:`repro.core.threshold` — the threshold-calibration app;
* :mod:`repro.core.guard` — the façade that wires everything together.
"""

from repro.core.config import VoiceGuardConfig
from repro.core.decision import (
    DecisionContext,
    DecisionMethod,
    DecisionModule,
    DecisionResult,
    RssiDecisionMethod,
    Verdict,
)
from repro.core.events import CommandEvent, GuardLog, TrafficClass
from repro.core.floor import FloorLevelTracker, TraceClassifier
from repro.core.guard import VoiceGuard
from repro.core.handler import TrafficHandler
from repro.core.recognition import SpeakerProfile, TrafficRecognition, Window
from repro.core.registry import DeviceRegistry, RegisteredDevice
from repro.core.threshold import ThresholdCalibrator, perimeter_route

__all__ = [
    "CommandEvent",
    "DecisionContext",
    "DecisionMethod",
    "DecisionModule",
    "DecisionResult",
    "DeviceRegistry",
    "FloorLevelTracker",
    "GuardLog",
    "RegisteredDevice",
    "RssiDecisionMethod",
    "SpeakerProfile",
    "ThresholdCalibrator",
    "TraceClassifier",
    "TrafficClass",
    "TrafficHandler",
    "TrafficRecognition",
    "Verdict",
    "VoiceGuard",
    "VoiceGuardConfig",
    "Window",
    "perimeter_route",
]

"""Exception hierarchy for the VoiceGuard reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly (e.g. time reversal,
    or a seed numpy's ``SeedSequence`` would not take)."""


class NetworkError(ReproError):
    """A network-stack invariant was violated (bad address, dead connection)."""


class ConnectionClosedError(NetworkError):
    """Data was sent on a TCP connection that is no longer established."""


class RadioError(ReproError):
    """Radio/propagation misuse (unknown floor, device without a position)."""


class FloorPlanError(RadioError):
    """A floor plan is geometrically inconsistent."""


class ConfigError(ReproError):
    """Invalid VoiceGuard configuration."""


class RegistrationError(ReproError):
    """Device registration on the guard was rejected (paper section IV-C:
    registration requires manual owner approval)."""


class WorkloadError(ReproError):
    """An experiment workload was specified inconsistently."""


class SnapshotError(ReproError):
    """A world could not be snapshotted for the scenario pool (it holds
    persistent state pickle cannot serialize, such as a closure)."""


class ExperimentError(ReproError):
    """The parallel experiment engine failed (bad worker count, or a
    worker process died mid-task)."""

"""VoiceGuard configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import ConfigError


@dataclass
class VoiceGuardConfig:
    """The guard's resilience policies and concurrency modes.

    The defaults are the paper's guard.  Its timeout policy is not a
    setting: a held command is dropped unless a registered device proves
    proximity within :data:`repro.core.decision.DECISION_TIMEOUT`, and
    no flow is held longer than :data:`repro.core.handler.MAX_HOLD`.
    What the traffic fixes is not a setting either: the idle gap that
    opens a recognition window, the classification timeout and the
    seven-packet classification bound are constants of
    :mod:`repro.core.recognition` and :mod:`repro.speakers.signatures`.
    Nor is the recognizer: the guard runs the paper's signature matcher,
    and the learned ones in :mod:`repro.core.recognizers` are measured
    offline.  Every float must be finite.
    """

    # Decision resilience (all off by default: one push per device and a
    # flat timeout, the paper's original behaviour).
    push_retries: int = 0  # extra push attempts per silent device
    proximity_cache_ttl: float = 0.0  # degraded mode: trust proximity this recent (0 = off)

    # Concurrency (all inert by default: a single command in flight
    # behaves byte-identically to the pre-concurrency pipeline).
    max_concurrent_queries: int = 0  # in-flight RSSI queries (0 = unlimited)
    decision_batching: bool = False  # one report may settle several commands
    held_byte_budget: int = 0  # global cap on held payload bytes (0 = unlimited)

    def __post_init__(self) -> None:
        # A NaN slips past every ordered comparison below, and a NaN or
        # infinite TTL would reach the event heap as a timestamp.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{spec.name} must be finite, got {value!r}")
        if self.push_retries < 0:
            raise ConfigError(f"push_retries must be >= 0, got {self.push_retries!r}")
        if self.proximity_cache_ttl < 0:
            raise ConfigError(
                f"proximity_cache_ttl must be >= 0, got {self.proximity_cache_ttl!r}"
            )
        if self.max_concurrent_queries < 0:
            raise ConfigError(
                f"max_concurrent_queries must be >= 0, got {self.max_concurrent_queries!r}"
            )
        if self.held_byte_budget < 0:
            raise ConfigError(
                f"held_byte_budget must be >= 0, got {self.held_byte_budget!r}"
            )

"""VoiceGuard configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from repro.errors import ConfigError


@dataclass
class VoiceGuardConfig:
    """Tunable parameters of the guard.

    Defaults follow the paper: a held command is dropped if no device
    proves proximity before ``decision_timeout``.  What the traffic
    fixes is not a setting: the idle gap that opens a recognition
    window, the classification timeout and the seven-packet
    classification bound are constants of :mod:`repro.core.recognition`
    and :mod:`repro.speakers.signatures`.  Nor is the recognizer: the
    guard runs the paper's signature matcher, and the learned ones in
    :mod:`repro.core.recognizers` are measured offline.  Every float
    must be finite.
    """

    # Decision.
    decision_timeout: float = 5.0  # no reply from any device -> timeout verdict
    fail_open: bool = False  # on timeout: True = release, False = drop

    # Decision resilience (all off by default: one push per device and a
    # flat timeout, the paper's original behaviour).
    push_retries: int = 0  # extra push attempts per silent device
    retry_base: float = 1.5  # first backoff delay; doubles per attempt...
    retry_cap: float = 6.0  # ...but never exceeds this
    proximity_cache_ttl: float = 0.0  # degraded mode: trust proximity this recent (0 = off)

    # Safety bound: never hold a flow longer than this, whatever happens.
    max_hold: float = 25.0

    # Concurrency (all inert by default: a single command in flight
    # behaves byte-identically to the pre-concurrency pipeline).
    max_concurrent_queries: int = 0  # in-flight RSSI queries (0 = unlimited)
    decision_batching: bool = False  # one report may settle several commands
    held_byte_budget: int = 0  # global cap on held payload bytes (0 = unlimited)
    # Overflow policy when the budget is exhausted: True = forward the
    # victim window unchecked, False = drop it; None follows fail_open.
    overflow_fail_open: Optional[bool] = None

    def __post_init__(self) -> None:
        # A NaN slips past every ordered comparison below, and a NaN or
        # infinite delay would reach the event heap as a timestamp.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{spec.name} must be finite, got {value!r}")
        if self.decision_timeout <= 0:
            raise ConfigError("decision_timeout must be positive")
        if self.push_retries < 0:
            raise ConfigError(f"push_retries must be >= 0, got {self.push_retries!r}")
        if self.retry_base <= 0:
            raise ConfigError(f"retry_base must be positive, got {self.retry_base!r}")
        if self.retry_cap < self.retry_base:
            raise ConfigError("retry_cap must be at least retry_base")
        if self.proximity_cache_ttl < 0:
            raise ConfigError(
                f"proximity_cache_ttl must be >= 0, got {self.proximity_cache_ttl!r}"
            )
        if self.max_hold < self.decision_timeout:
            raise ConfigError("max_hold must be at least decision_timeout")
        if self.max_concurrent_queries < 0:
            raise ConfigError(
                f"max_concurrent_queries must be >= 0, got {self.max_concurrent_queries!r}"
            )
        if self.held_byte_budget < 0:
            raise ConfigError(
                f"held_byte_budget must be >= 0, got {self.held_byte_budget!r}"
            )

    @property
    def overflow_releases(self) -> bool:
        """Effective overflow policy (``overflow_fail_open`` or ``fail_open``)."""
        if self.overflow_fail_open is not None:
            return self.overflow_fail_open
        return self.fail_open

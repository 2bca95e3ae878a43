"""VoiceGuard configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass
class VoiceGuardConfig:
    """Tunable parameters of the guard.

    Defaults follow the paper: a spike after ~2.5 s of (non-heartbeat)
    silence opens a new recognition window; classification needs at
    most ``speakers.signatures.PHASE2_MARKER_MAX_INDEX`` (seven) packets,
    a fixed property of the traffic rather than a setting; a held command
    is dropped if no device proves proximity before ``decision_timeout``.
    """

    # Traffic recognition.
    idle_gap: float = 2.5  # seconds of app-data silence that ends a spike
    classification_timeout: float = 0.6  # give up waiting for more packets

    # Window recognizer: "signature" (the paper's matcher, default) or a
    # trainable kind from repro.core.recognizers ("knn" / "mlp"), trained
    # per speaker during the scenario build.  ``recognizer_train_morph``
    # names a repro.attacks.morphing adversary whose reshaping is applied
    # to the training windows (adversarial retraining); None trains clean.
    recognizer: str = "signature"
    recognizer_train_windows: int = 30  # training windows per class
    recognizer_train_morph: Optional[str] = None

    # Decision.
    decision_timeout: float = 5.0  # no reply from any device -> timeout verdict
    fail_open: bool = False  # on timeout: True = release, False = drop
    rssi_margin: float = 0.0  # extra slack subtracted from thresholds

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
        if self.idle_gap <= 0:
            raise ConfigError(f"idle_gap must be positive, got {self.idle_gap!r}")
        if self.classification_timeout <= 0:
            raise ConfigError("classification_timeout must be positive")
        # Validation is syntactic only (the recognizer registry lives a
        # layer above config); unknown names fail at scenario build.
        if not self.recognizer or not isinstance(self.recognizer, str):
            raise ConfigError(
                f"recognizer must be a non-empty name, got {self.recognizer!r}")
        if self.recognizer_train_windows < 1:
            raise ConfigError(
                "recognizer_train_windows must be positive, got "
                f"{self.recognizer_train_windows!r}")
        if self.recognizer_train_morph is not None and self.recognizer == "signature":
            raise ConfigError(
                "recognizer_train_morph requires a trainable recognizer")
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

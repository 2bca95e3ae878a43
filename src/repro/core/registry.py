"""Multi-user device registry (paper Section IV-C).

VoiceGuard keeps a list of devices belonging to the speaker's
legitimate users, each with its own calibrated RSSI threshold.  A voice
command is legitimate if *at least one* registered device proves
proximity.  Registration requires the owner's approval — an attacker
cannot add his own device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import RegistrationError
from repro.home.devices import MobileDevice


class PluginRegistry:
    """Name → factory registry for pluggable strategies.

    The paper stresses the guard has "an open and extensible framework"
    (Section VII); this is the generic surface behind it.  Decision
    methods (:mod:`repro.core.methods`), window recognizers
    (:mod:`repro.core.recognizers`) and traffic morphers
    (:mod:`repro.attacks.morphing`) each keep a module-level instance,
    so experiments select implementations by name (CLI flags, config
    fields) without importing them directly.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable[..., object]] = {}

    def register(self, name: str, factory: Callable[..., object],
                 replace: bool = False) -> Callable[..., object]:
        """Add ``factory`` under ``name``; refuse silent redefinition."""
        if not replace and name in self._factories:
            raise RegistrationError(
                f"{self.kind} {name!r} is already registered")
        self._factories[name] = factory
        return factory

    def create(self, name: str, *args: object, **kwargs: object) -> object:
        """Instantiate the factory registered under ``name``."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise RegistrationError(
                f"no {self.kind} named {name!r}; "
                f"known: {', '.join(self.names()) or '(none)'}"
            ) from None
        return factory(*args, **kwargs)

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)


@dataclass
class RegisteredDevice:
    """One enrolled phone/watch and its RSSI threshold."""

    device: MobileDevice
    threshold: float

    @property
    def name(self) -> str:
        """The underlying device's name."""
        return self.device.name


class DeviceRegistry:
    """The guard's list of legitimate users' devices."""

    def __init__(self) -> None:
        self._entries: Dict[str, RegisteredDevice] = {}

    def register(
        self,
        device: MobileDevice,
        threshold: float,
        approved_by_owner: bool = True,
    ) -> RegisteredDevice:
        """Enroll ``device`` with its calibrated ``threshold``.

        ``approved_by_owner`` models the manual login-credential step;
        an unapproved registration (an attacker's attempt) is refused.
        """
        if not approved_by_owner:
            raise RegistrationError(
                f"registration of {device.name!r} requires the owner's approval"
            )
        if device.name in self._entries:
            raise RegistrationError(f"device {device.name!r} is already registered")
        entry = RegisteredDevice(device=device, threshold=float(threshold))
        self._entries[device.name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove a device from the registry."""
        if name not in self._entries:
            raise RegistrationError(f"no registered device named {name!r}")
        del self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def entries(self) -> List[RegisteredDevice]:
        """All registered devices."""
        return list(self._entries.values())

    def get(self, name: str) -> RegisteredDevice:
        """Look up a registered device by name."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistrationError(f"no registered device named {name!r}") from None

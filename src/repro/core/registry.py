"""Multi-user device registry (paper Section IV-C).

VoiceGuard keeps a list of devices belonging to the speaker's
legitimate users, each with its own calibrated RSSI threshold.  A voice
command is legitimate if *at least one* registered device proves
proximity.  Registration requires the owner's approval — an attacker
cannot add his own device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, TypeVar

from repro.errors import RegistrationError
from repro.home.devices import MobileDevice

T = TypeVar("T")


def lookup(table: Mapping[str, T], kind: str, name: str) -> T:
    """``table[name]``, or a :class:`RegistrationError` naming every
    known entry: how the window-recognizer and traffic-morpher name →
    class tables are read."""
    try:
        return table[name]
    except KeyError:
        raise RegistrationError(
            f"no {kind} named {name!r}; known: {', '.join(sorted(table))}"
        ) from None


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

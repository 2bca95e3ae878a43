"""IP addresses and endpoints.

A tiny validated wrapper is used instead of :mod:`ipaddress` because the
simulation only needs equality, hashing and pretty-printing, and the
wrapper keeps error messages in simulation vocabulary.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import NetworkError


def _validate_ipv4(text: str) -> str:
    parts = text.split(".")
    if len(parts) != 4:
        raise NetworkError(f"invalid IPv4 address {text!r}")
    for part in parts:
        if not part.isdigit() or not 0 <= int(part) <= 255 or (part != "0" and part[0] == "0"):
            raise NetworkError(f"invalid IPv4 address {text!r}")
    return text


class IPv4Address(tuple):
    """A dotted-quad IPv4 address.

    An immutable one-element tuple ``(text,)``: every packet demux hashes
    and compares addresses, and a tuple does both in C.  The hash is
    ``hash((text,))``, the value the frozen dataclass this replaced
    produced, so set and dict iteration orders are unchanged; ordering
    compares the text, as before.  Being a tuple, an address also equals
    the plain tuple ``(text,)``.
    """

    __slots__ = ()

    def __new__(cls, text: str) -> "IPv4Address":
        _validate_ipv4(text)
        return tuple.__new__(cls, (text,))

    text = property(itemgetter(0), doc="The dotted-quad text.")

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __str__(self) -> str:
        return self[0]

    def __repr__(self) -> str:
        return f"IPv4Address(text={self[0]!r})"

    @property
    def is_private(self) -> bool:
        """True for RFC1918 addresses (the home LAN side)."""
        first, second, _ = self[0].split(".", 2)
        first_octet = int(first)
        second_octet = int(second)
        return (
            first_octet == 10
            or (first_octet == 192 and second_octet == 168)
            or (first_octet == 172 and 16 <= second_octet <= 31)
        )


class Endpoint(tuple):
    """An (address, port) pair, one side of a flow.

    A two-element tuple ``(ip, port)`` for the same reason as
    :class:`IPv4Address`; its hash is ``hash((ip, port))``, unchanged
    from the dataclass it replaced.
    """

    __slots__ = ()

    def __new__(cls, ip: IPv4Address, port: int) -> "Endpoint":
        if not 0 < port <= 65535:
            raise NetworkError(f"invalid port {port!r}")
        return tuple.__new__(cls, (ip, port))

    ip = property(itemgetter(0), doc="The address.")
    port = property(itemgetter(1), doc="The port number.")

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}"

    def __repr__(self) -> str:
        return f"Endpoint(ip={self[0]!r}, port={self[1]!r})"


def endpoint(ip: str, port: int) -> Endpoint:
    """Shorthand constructor: ``endpoint("192.168.1.200", 443)``."""
    return Endpoint(IPv4Address(ip), port)

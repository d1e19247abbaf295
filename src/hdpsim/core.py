"""Identity, time, and shared value types used by every other module.

Simulation time is integer microseconds from simulation start so that traces
hash identically across platforms. Device clocks are modeled as the sim clock
plus a constant signed offset (no drift).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

SimTime = int  # microseconds since simulation start

MAX_ADDRESS = (1 << 48) - 1
MAX_NAME_BYTES = 248

_ADDRESS_RE = re.compile(r"^" + r"([0-9A-Fa-f]{2}):" * 5 + r"([0-9A-Fa-f]{2})$")


class MalformedAddress(ValueError):
    """Text does not match the canonical colon-separated hex form."""


class InvalidDeviceName(ValueError):
    """Device name exceeds 248 UTF-8 bytes."""


class DuplicateAddress(ValueError):
    """A second device tried to register an address already in use."""


@dataclass(frozen=True, order=True)
class DeviceAddress:
    """48-bit device address, unique per device within one simulation.

    The canonical text form is six uppercase hex octet pairs separated by
    colons, e.g. ``"0A:1B:2C:3D:4E:5F"``. An address hashes as its value and
    formats its text on first use only, since validation builds many
    addresses that are never printed.
    """

    value: int
    _text = None  # canonical text once formatted; a class attribute, not a field

    def __post_init__(self):
        if not 0 <= self.value <= MAX_ADDRESS:
            raise MalformedAddress(f"address value out of 48-bit range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "DeviceAddress":
        return parse_address(text)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "DeviceAddress":
        if len(raw) != 6:
            raise MalformedAddress(f"expected 6 address bytes, got {len(raw)}")
        return cls(int.from_bytes(raw, "big"))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return self.value

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = format_address(self)
            object.__setattr__(self, "_text", text)
        return text


def parse_address(text: str) -> DeviceAddress:
    """Parse colon-separated hex into a DeviceAddress. Case-insensitive."""
    if not isinstance(text, str) or not _ADDRESS_RE.match(text):
        raise MalformedAddress(f"not a colon-separated 48-bit address: {text!r}")
    return DeviceAddress(int(text.replace(":", ""), 16))


def format_address(addr: DeviceAddress) -> str:
    """Canonical uppercase colon-hex form; inverse of parse_address."""
    raw = f"{addr.value:012X}"
    return ":".join(raw[i : i + 2] for i in range(0, 12, 2))


@dataclass(frozen=True)
class DeviceName:
    """Human-readable alias of a device address; not required to be unique."""

    text: str = ""

    def __post_init__(self):
        if len(self.text.encode("utf-8")) > MAX_NAME_BYTES:
            raise InvalidDeviceName(f"name exceeds {MAX_NAME_BYTES} UTF-8 bytes")

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class DeviceConfig:
    """Static configuration a device enters the simulation with.

    clock_offset_us is the device-local clock minus the sim clock; the local
    clock also phases the device's standby scan schedule.
    """

    address: DeviceAddress
    name: DeviceName = DeviceName("")
    position: tuple[float, float] = (0.0, 0.0)
    radio_range_m: float = 10.0
    clock_offset_us: int = 0

    def __post_init__(self):
        if self.radio_range_m < 0:
            raise ValueError("radio_range_m must be >= 0")


def encode_name(name: DeviceName) -> bytes:
    raw = name.text.encode("utf-8")
    return bytes([len(raw)]) + raw


def decode_name(raw: bytes, offset: int = 0) -> tuple[DeviceName, int]:
    """Decode a length-prefixed UTF-8 name; returns (name, next_offset)."""
    length = raw[offset]
    start = offset + 1
    return DeviceName(raw[start : start + length].decode("utf-8")), start + length

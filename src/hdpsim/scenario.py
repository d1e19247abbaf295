"""Scenario files: JSON schema, loading, and validation.

A scenario declares the devices (with initial radio modes, optional PIN,
role, and whitelist), the medium, parameter overrides, and a timeline of
timed actions. Validation resolves every cross-reference and reports the
offending field and rule by name; JSON syntax errors surface with line and
column.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .core import DeviceAddress, MalformedAddress, parse_address
from .discovery import ConnectabilityMode, DiscoverabilityMode
from .hdp import Specialization
from .params import SimParams

VALID_DISCOVERABILITY = tuple(m.value for m in DiscoverabilityMode)
VALID_CONNECTABILITY = tuple(m.value for m in ConnectabilityMode)
VALID_SPECIALIZATIONS = tuple(s.name.lower() for s in Specialization)

# action name -> required fields (beyond t_us/action)
ACTIONS: dict[str, tuple[str, ...]] = {
    "set_mode": ("device",),
    "start_inquiry": ("device", "duration_us"),
    "page": ("device", "target"),
    "associate": ("source", "sink", "specialization"),
    "send_measurement": ("source", "sink", "readings"),
    "move_device": ("device", "position"),
    "drop_link": ("a", "b"),
    "admit_traffic": ("master", "requested"),
    "release": ("source", "sink"),
    "request_channel": ("source", "sink", "kind"),
    "run_until": (),
}

_ADDRESS_FIELDS = ("device", "target", "source", "sink", "a", "b", "master")


class ParseError(Exception):
    """Malformed JSON; carries the position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ValidationError(Exception):
    """Well-formed JSON violating a schema rule; names field and rule."""

    def __init__(self, fld: str, rule: str):
        super().__init__(f"{fld}: {rule}")
        self.field = fld
        self.rule = rule


@dataclass
class ScenarioDevice:
    address: DeviceAddress
    name: str
    position: tuple[float, float] = (0.0, 0.0)
    radio_range_m: float = 10.0
    clock_offset_us: int = 0
    discoverability: str = "discoverable"
    limited_window_us: Optional[int] = None
    connectability: str = "connectable"
    pin: Optional[str] = None
    role: Optional[str] = None
    sink_whitelist: Optional[list[str]] = None
    rate_cap_bps: Optional[int] = None


@dataclass
class Scenario:
    name: str
    devices: list[ScenarioDevice]
    medium: dict[str, Any] = field(default_factory=dict)
    overrides: dict[str, int] = field(default_factory=dict)
    timeline: list[dict[str, Any]] = field(default_factory=list)

    def device(self, address: DeviceAddress) -> ScenarioDevice:
        for dev in self.devices:
            if dev.address == address:
                return dev
        raise KeyError(str(address))


_DEVICE_KEYS = {
    "address",
    "name",
    "position",
    "radio_range_m",
    "clock_offset_us",
    "discoverability",
    "limited_window_us",
    "connectability",
    "pin",
    "role",
    "sink_whitelist",
    "rate_cap_bps",
}

_TOP_KEYS = {"name", "devices", "medium", "params", "timeline"}

_MEDIUM_KEYS = {"loss_probability", "propagation_us", "jitter_us"}


def _is_int(value: Any) -> bool:
    """An integer as JSON gives it; ``true``/``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(condition: bool, fld: str, rule: str) -> None:
    if not condition:
        raise ValidationError(fld, rule)


def _parse_addr(fld: str, value: Any) -> DeviceAddress:
    _require(isinstance(value, str), fld, "must be an address string")
    try:
        return parse_address(value)
    except MalformedAddress as exc:
        raise ValidationError(fld, f"not a valid address: {exc}") from exc


def _validate_device(index: int, raw: Any) -> ScenarioDevice:
    where = f"devices[{index}]"
    _require(isinstance(raw, dict), where, "must be an object")
    unknown = set(raw) - _DEVICE_KEYS
    _require(not unknown, where, f"unknown key(s): {sorted(unknown)}")
    _require("address" in raw, f"{where}.address", "is required")
    address = _parse_addr(f"{where}.address", raw["address"])
    name = raw.get("name", str(address))
    _require(isinstance(name, str), f"{where}.name", "must be a string")
    position = raw.get("position", [0.0, 0.0])
    _require(
        isinstance(position, list)
        and len(position) == 2
        and all(isinstance(v, (int, float)) for v in position),
        f"{where}.position",
        "must be [x, y]",
    )
    radio_range = raw.get("radio_range_m", 10.0)
    _require(
        isinstance(radio_range, (int, float)) and radio_range >= 0,
        f"{where}.radio_range_m",
        "must be a non-negative number",
    )
    offset = raw.get("clock_offset_us", 0)
    _require(
        _is_int(offset), f"{where}.clock_offset_us", "must be an integer"
    )
    disc = raw.get("discoverability", "discoverable")
    _require(
        disc in VALID_DISCOVERABILITY,
        f"{where}.discoverability",
        f"must be one of {VALID_DISCOVERABILITY}",
    )
    window = raw.get("limited_window_us")
    if disc == "limited":
        _require(
            _is_int(window) and window > 0,
            f"{where}.limited_window_us",
            "limited discoverability requires a positive window",
        )
    conn = raw.get("connectability", "connectable")
    _require(
        conn in VALID_CONNECTABILITY,
        f"{where}.connectability",
        f"must be one of {VALID_CONNECTABILITY}",
    )
    pin = raw.get("pin")
    if pin is not None:
        _require(
            isinstance(pin, str) and 1 <= len(pin.encode("utf-8")) <= 16,
            f"{where}.pin",
            "must be a 1..16 byte string",
        )
    role = raw.get("role")
    if role is not None:
        _require(
            role in ("source", "sink"), f"{where}.role", "must be 'source' or 'sink'"
        )
    whitelist = raw.get("sink_whitelist")
    if whitelist is not None:
        _require(
            isinstance(whitelist, list)
            and all(s in VALID_SPECIALIZATIONS for s in whitelist),
            f"{where}.sink_whitelist",
            f"entries must be from {VALID_SPECIALIZATIONS}",
        )
    cap = raw.get("rate_cap_bps")
    if cap is not None:
        _require(
            _is_int(cap) and cap > 0,
            f"{where}.rate_cap_bps",
            "must be a positive integer",
        )
    return ScenarioDevice(
        address=address,
        name=name,
        position=(float(position[0]), float(position[1])),
        radio_range_m=float(radio_range),
        clock_offset_us=offset,
        discoverability=disc,
        limited_window_us=window,
        connectability=conn,
        pin=pin,
        role=role,
        sink_whitelist=list(whitelist) if whitelist is not None else None,
        rate_cap_bps=cap,
    )


def _validate_action(index: int, raw: Any, known: set[DeviceAddress]) -> dict[str, Any]:
    where = f"timeline[{index}]"
    _require(isinstance(raw, dict), where, "must be an object")
    _require("t_us" in raw, f"{where}.t_us", "is required")
    _require(
        _is_int(raw["t_us"]) and raw["t_us"] >= 0,
        f"{where}.t_us",
        "must be a non-negative integer",
    )
    _require("action" in raw, f"{where}.action", "is required")
    action = raw["action"]
    _require(
        action in ACTIONS,
        f"{where}.action",
        f"unknown action; must be one of {sorted(ACTIONS)}",
    )
    for req in ACTIONS[action]:
        _require(req in raw, f"{where}.{req}", f"required by action '{action}'")
    out = dict(raw)
    for fld in _ADDRESS_FIELDS:
        if fld in raw:
            address = _parse_addr(f"{where}.{fld}", raw[fld])
            _require(
                address in known,
                f"{where}.{fld}",
                f"references undefined device {address}",
            )
            out[fld] = address
    if action == "associate":
        _require(
            raw["specialization"] in VALID_SPECIALIZATIONS,
            f"{where}.specialization",
            f"must be one of {VALID_SPECIALIZATIONS}",
        )
    if action == "send_measurement":
        readings = raw["readings"]
        _require(
            isinstance(readings, dict)
            and readings
            and all(isinstance(v, (int, float)) for v in readings.values()),
            f"{where}.readings",
            "must be a non-empty object of numbers",
        )
        count = raw.get("count", 1)
        _require(
            _is_int(count) and count >= 1,
            f"{where}.count",
            "must be a positive integer",
        )
        interval = raw.get("interval_us", 1_000_000)
        _require(
            _is_int(interval) and interval > 0,
            f"{where}.interval_us",
            "must be a positive integer",
        )
    if action == "start_inquiry":
        _require(
            _is_int(raw["duration_us"]) and raw["duration_us"] > 0,
            f"{where}.duration_us",
            "must be a positive integer",
        )
    if action == "move_device":
        position = raw["position"]
        _require(
            isinstance(position, list)
            and len(position) == 2
            and all(isinstance(v, (int, float)) for v in position),
            f"{where}.position",
            "must be [x, y]",
        )
    if action == "set_mode":
        _require(
            "discoverability" in raw or "connectability" in raw,
            where,
            "set_mode needs discoverability and/or connectability",
        )
        if "discoverability" in raw:
            _require(
                raw["discoverability"] in VALID_DISCOVERABILITY,
                f"{where}.discoverability",
                f"must be one of {VALID_DISCOVERABILITY}",
            )
            if raw["discoverability"] == "limited":
                _require(
                    _is_int(raw.get("window_us")) and raw["window_us"] > 0,
                    f"{where}.window_us",
                    "limited discoverability requires a positive window",
                )
        if "connectability" in raw:
            _require(
                raw["connectability"] in VALID_CONNECTABILITY,
                f"{where}.connectability",
                f"must be one of {VALID_CONNECTABILITY}",
            )
    if action == "request_channel":
        _require(
            raw["kind"] in ("data", "audio"),
            f"{where}.kind",
            "must be 'data' or 'audio'",
        )
    if action == "admit_traffic":
        requested = raw["requested"]
        _require(
            isinstance(requested, dict) and requested,
            f"{where}.requested",
            "must be a non-empty object of address -> bps",
        )
        for key, bps in requested.items():
            address = _parse_addr(f"{where}.requested[{key}]", key)
            _require(
                address in known,
                f"{where}.requested[{key}]",
                f"references undefined device {address}",
            )
            _require(
                _is_int(bps) and bps >= 0,
                f"{where}.requested[{key}]",
                "rate must be a non-negative integer",
            )
    return out


def validate_scenario(raw: Any) -> Scenario:
    """Validate a decoded JSON document into a Scenario."""
    _require(isinstance(raw, dict), "scenario", "top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, "scenario", f"unknown key(s): {sorted(unknown)}")
    name = raw.get("name", "unnamed")
    _require(isinstance(name, str), "name", "must be a string")
    _require(
        isinstance(raw.get("devices"), list) and raw["devices"],
        "devices",
        "must be a non-empty list",
    )
    devices = [_validate_device(i, d) for i, d in enumerate(raw["devices"])]
    seen: set[DeviceAddress] = set()
    for i, dev in enumerate(devices):
        _require(
            dev.address not in seen,
            f"devices[{i}].address",
            f"duplicate address {dev.address}",
        )
        seen.add(dev.address)
    medium = raw.get("medium", {})
    _require(isinstance(medium, dict), "medium", "must be an object")
    unknown = set(medium) - _MEDIUM_KEYS
    _require(not unknown, "medium", f"unknown key(s): {sorted(unknown)}")
    if "loss_probability" in medium:
        p = medium["loss_probability"]
        _require(
            isinstance(p, (int, float)) and 0.0 <= p <= 1.0,
            "medium.loss_probability",
            "must be in [0, 1]",
        )
    for key in ("propagation_us", "jitter_us"):
        if key in medium:
            _require(
                _is_int(medium[key]) and medium[key] >= (1 if key == "propagation_us" else 0),
                f"medium.{key}",
                "must be a non-negative integer (propagation at least 1)",
            )
    overrides = raw.get("params", {})
    _require(isinstance(overrides, dict), "params", "must be an object")
    known_params = {f.name for f in dataclasses.fields(SimParams)}
    for key, value in overrides.items():
        _require(key in known_params, f"params.{key}", "unknown parameter")
        floor = 0 if key == "freq_low" else 1
        _require(
            _is_int(value) and value >= floor,
            f"params.{key}",
            f"must be an integer of at least {floor}",
        )
    timeline_raw = raw.get("timeline", [])
    _require(isinstance(timeline_raw, list), "timeline", "must be a list")
    timeline = [_validate_action(i, a, seen) for i, a in enumerate(timeline_raw)]
    last_t = 0
    for i, action in enumerate(timeline):
        _require(
            action["t_us"] >= last_t,
            f"timeline[{i}].t_us",
            "timeline not sorted",
        )
        last_t = action["t_us"]
    return Scenario(
        name=name,
        devices=devices,
        medium=dict(medium),
        overrides=dict(overrides),
        timeline=timeline,
    )


def load_scenario(path: str) -> Scenario:
    """Read, parse, and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    return validate_scenario(raw)

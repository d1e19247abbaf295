"""Scenario files: JSON schema, loading, and validation.

A scenario declares the devices (with initial radio modes, optional PIN,
role, and whitelist), the medium, parameter overrides, and a timeline of
timed actions. The schema is data: ``DEVICE_FIELDS``, ``MEDIUM_FIELDS`` and
``ACTIONS`` map each field to its check, whether it is required and its
default. One loop, ``_fields``, applies a table: it rejects keys the table
does not list, checks each field present, and fills each absent one (or
``null``) with its default. Checks return typed values: addresses as
``DeviceAddress``, modes, specializations and channel kinds as their enums,
PINs as ``Pin``. The runner therefore parses nothing again. The tables also
shape the records: ``ScenarioDevice`` has one field per ``DEVICE_FIELDS``
key, and the runner's ``HANDLERS`` one entry per ``ACTIONS`` key. The few
rules that span fields keep one small hook each (the limited window in
``_validate_device``, and ``_ACTION_RULES``). Rules owned by a constructor
(``SimParams``, ``DeviceName``, ``Pin``) are checked by building the value.
Every error names the offending field and rule; JSON syntax errors surface
with line and column.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .core import DeviceAddress, DeviceName, MalformedAddress, parse_address
from .discovery import ConnectabilityMode, DiscoverabilityMode
from .hdp import ChannelKind, Specialization
from .params import ParamError, SimParams
from .security import Pin


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


def _require(condition: bool, fld: str, rule: str) -> None:
    if not condition:
        raise ValidationError(fld, rule)


# -- field checks: (JSON value, field path) -> typed value --------------------


def _is_int(value: Any) -> bool:
    """An integer as JSON gives it; ``true``/``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int(low: Optional[int] = None) -> Callable[[Any, str], int]:
    rule = "must be an integer" if low is None else f"must be an integer of at least {low}"

    def check(value: Any, fld: str) -> int:
        _require(_is_int(value) and (low is None or value >= low), fld, rule)
        return value

    return check


def _choice(options: dict[str, Any]) -> Callable[[Any, str], Any]:
    rule = f"must be one of {tuple(options)}"

    def check(value: Any, fld: str) -> Any:
        _require(isinstance(value, str) and value in options, fld, rule)
        return options[value]

    return check


def _address(value: Any, fld: str) -> DeviceAddress:
    try:
        return parse_address(value)
    except MalformedAddress as exc:
        raise ValidationError(fld, f"not a valid address: {exc}") from exc


def _built(make: Callable[[str], Any], value: Any, fld: str) -> Any:
    """``make(value)`` for a string whose rule ``make`` owns; its ValueError
    becomes the rule."""
    _require(isinstance(value, str), fld, "must be a string")
    try:
        return make(value)
    except ValueError as exc:
        raise ValidationError(fld, str(exc)) from exc


def _name(value: Any, fld: str) -> str:
    return _built(DeviceName, value, fld).text


def _pin(value: Any, fld: str) -> Pin:
    return _built(Pin.from_text, value, fld)


def _number(value: Any, fld: str, rule: str, low=-math.inf, high=math.inf) -> float:
    _require(isinstance(value, (int, float)), fld, rule)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    _require(low <= number <= high, fld, rule)
    return number


def _range_m(value: Any, fld: str) -> float:
    return _number(value, fld, "must be a non-negative number", low=0.0)


def _probability(value: Any, fld: str) -> float:
    return _number(value, fld, "must be in [0, 1]", 0.0, 1.0)


def _position(value: Any, fld: str) -> tuple[float, float]:
    _require(isinstance(value, list) and len(value) == 2, fld, "must be [x, y]")
    return tuple(_number(v, fld, "must be [x, y]") for v in value)


def _bool(value: Any, fld: str) -> bool:
    _require(isinstance(value, bool), fld, "must be true or false")
    return value


_discoverability = _choice({m.value: m for m in DiscoverabilityMode})
_connectability = _choice({m.value: m for m in ConnectabilityMode})
_specialization = _choice({s.name.lower(): s for s in Specialization})
_non_negative = _int(0)
_positive = _int(1)


def _whitelist(value: Any, fld: str) -> frozenset[Specialization]:
    _require(isinstance(value, list), fld, "must be a list of specialization names")
    return frozenset(_specialization(v, f"{fld}[{i}]") for i, v in enumerate(value))


def _readings(value: Any, fld: str) -> dict[str, float]:
    _require(
        isinstance(value, dict)
        and value
        and all(isinstance(v, (int, float)) for v in value.values()),
        fld,
        "must be a non-empty object of numbers",
    )
    return value


def _rates(value: Any, fld: str) -> dict[DeviceAddress, int]:
    _require(
        isinstance(value, dict) and value, fld, "must be a non-empty object of address -> bps"
    )
    return {
        _address(key, f"{fld}[{key}]"): _non_negative(bps, f"{fld}[{key}]")
        for key, bps in value.items()
    }


# -- the schema -----------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One schema field: its check, whether it is required, and its default."""

    check: Callable[[Any, str], Any]
    required: bool = False
    default: Any = None


_ADDRESS = Field(_address, required=True)

DEVICE_FIELDS: dict[str, Field] = {
    "address": _ADDRESS,
    "name": Field(_name),  # defaults to the address text, see _validate_device
    "position": Field(_position, default=(0.0, 0.0)),
    "radio_range_m": Field(_range_m, default=10.0),
    "clock_offset_us": Field(_int(), default=0),
    "discoverability": Field(_discoverability, default=DiscoverabilityMode.DISCOVERABLE),
    "limited_window_us": Field(_positive),
    "connectability": Field(_connectability, default=ConnectabilityMode.CONNECTABLE),
    "pin": Field(_pin),
    "role": Field(_choice({"source": "source", "sink": "sink"})),
    "sink_whitelist": Field(_whitelist),
    "rate_cap_bps": Field(_positive),
}

MEDIUM_FIELDS: dict[str, Field] = {
    "loss_probability": Field(_probability, default=0.0),
    "propagation_us": Field(_positive, default=1),
    "jitter_us": Field(_non_negative, default=0),
}

# action name -> its fields beyond t_us and action
ACTIONS: dict[str, dict[str, Field]] = {
    "set_mode": {
        "device": _ADDRESS,
        "discoverability": Field(_discoverability),
        "connectability": Field(_connectability),
        "window_us": Field(_positive),
    },
    "start_inquiry": {"device": _ADDRESS, "duration_us": Field(_positive, required=True)},
    "page": {"device": _ADDRESS, "target": _ADDRESS},
    "associate": {
        "source": _ADDRESS,
        "sink": _ADDRESS,
        "specialization": Field(_specialization, required=True),
        "auto_reconnect": Field(_bool, default=True),
    },
    "send_measurement": {
        "source": _ADDRESS,
        "sink": _ADDRESS,
        "readings": Field(_readings, required=True),
        "count": Field(_positive, default=1),
        "interval_us": Field(_positive, default=1_000_000),
    },
    "move_device": {"device": _ADDRESS, "position": Field(_position, required=True)},
    "drop_link": {"a": _ADDRESS, "b": _ADDRESS},
    "admit_traffic": {"master": _ADDRESS, "requested": Field(_rates, required=True)},
    "release": {"source": _ADDRESS, "sink": _ADDRESS},
    "request_channel": {
        "source": _ADDRESS,
        "sink": _ADDRESS,
        "kind": Field(_choice({k.value: k for k in ChannelKind}), required=True),
    },
    "run_until": {},
}

_TIMED = {
    "t_us": Field(_non_negative, required=True),
    "action": Field(_choice({kind: kind for kind in ACTIONS}), required=True),
}
_ACTION_TABLES = {kind: {**_TIMED, **fields} for kind, fields in ACTIONS.items()}

_TOP_KEYS = {"name", "devices", "medium", "params", "timeline"}

_PARAM_NAMES = {f.name for f in dataclasses.fields(SimParams)}


def _fields(table: dict[str, Field], raw: Any, where: str) -> dict[str, Any]:
    """Apply one schema table to a JSON object; ``null`` counts as absent."""
    _require(isinstance(raw, dict), where, "must be an object")
    for key in raw:
        if key not in table:
            raise ValidationError(f"{where}.{key}", "unknown key")
    out = {}
    for key, spec in table.items():
        value = raw.get(key)
        if value is not None:
            out[key] = spec.check(value, f"{where}.{key}")
        elif spec.required:
            raise ValidationError(f"{where}.{key}", "is required")
        else:
            out[key] = spec.default
    return out


# -- rules that span fields ---------------------------------------------------------


def _limited_window(mode: Optional[DiscoverabilityMode], window: Optional[int], fld: str) -> None:
    _require(
        mode is not DiscoverabilityMode.LIMITED or window is not None,
        fld,
        "limited discoverability requires a positive window",
    )


def _set_mode_rules(values: dict[str, Any], where: str, known: set[DeviceAddress]) -> None:
    _require(
        values["discoverability"] is not None or values["connectability"] is not None,
        where,
        "set_mode needs discoverability and/or connectability",
    )
    _limited_window(values["discoverability"], values["window_us"], f"{where}.window_us")


def _admit_traffic_rules(values: dict[str, Any], where: str, known: set[DeviceAddress]) -> None:
    for address in values["requested"]:
        if address not in known:
            raise ValidationError(
                f"{where}.requested[{address}]", f"references undefined device {address}"
            )


_ACTION_RULES: dict[str, Callable[[dict[str, Any], str, set[DeviceAddress]], None]] = {
    "set_mode": _set_mode_rules,
    "admit_traffic": _admit_traffic_rules,
}


# -- documents ----------------------------------------------------------------------


class ScenarioDevice(namedtuple("ScenarioDevice", DEVICE_FIELDS)):
    """One device entry, typed as ``DEVICE_FIELDS`` checks it, in table order."""

    __slots__ = ()


@dataclass
class Scenario:
    name: str
    devices: list[ScenarioDevice]
    medium: dict[str, Any]  # MEDIUM_FIELDS, defaults filled in
    params: SimParams
    timeline: list[dict[str, Any]]  # one ACTIONS table each, plus t_us and action


def _validate_device(index: int, raw: Any) -> ScenarioDevice:
    where = f"devices[{index}]"
    values = _fields(DEVICE_FIELDS, raw, where)
    _limited_window(
        values["discoverability"], values["limited_window_us"], f"{where}.limited_window_us"
    )
    if values["name"] is None:
        values["name"] = str(values["address"])
    return ScenarioDevice(**values)


def _validate_action(index: int, raw: Any, known: set[DeviceAddress]) -> dict[str, Any]:
    where = f"timeline[{index}]"
    _require(isinstance(raw, dict), where, "must be an object")
    _require("action" in raw, f"{where}.action", "is required")
    kind = raw["action"]
    _require(
        isinstance(kind, str) and kind in ACTIONS,
        f"{where}.action",
        f"unknown action; must be one of {sorted(ACTIONS)}",
    )
    values = _fields(_ACTION_TABLES[kind], raw, where)
    for key, value in values.items():
        if isinstance(value, DeviceAddress) and value not in known:
            raise ValidationError(f"{where}.{key}", f"references undefined device {value}")
    rules = _ACTION_RULES.get(kind)
    if rules is not None:
        rules(values, where, known)
    return values


def _validate_params(raw: Any) -> SimParams:
    _require(isinstance(raw, dict), "params", "must be an object")
    for key, value in raw.items():
        _require(key in _PARAM_NAMES, f"params.{key}", "unknown parameter")
        _require(_is_int(value), f"params.{key}", "must be an integer")
    try:
        return SimParams.with_overrides(raw)
    except ParamError as exc:
        raise ValidationError(f"params.{exc.name}", str(exc)) from exc


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
    medium = _fields(MEDIUM_FIELDS, raw.get("medium", {}), "medium")
    params = _validate_params(raw.get("params", {}))
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
        name=name, devices=devices, medium=medium, params=params, timeline=timeline
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

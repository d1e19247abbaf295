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
with line and column. A check names a failure relative to its value, and each
enclosing object or list puts its key or index in front on the way out, so a
valid document builds no error text. Each declared address text is parsed
once per document: a reference that repeats it takes the device's address
from a table that the one ``validate_scenario`` call builds and drops.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from .core import DeviceAddress, DeviceName, MalformedAddress, parse_address
from .discovery import ConnectabilityMode, DiscoverabilityMode
from .hdp import ChannelKind, Specialization
from .params import PARAM_NAMES, ParamError, SimParams
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


def _require(condition: bool, rule: str, fld: str = "") -> None:
    if not condition:
        raise ValidationError(fld, rule)


# -- field checks: JSON value -> typed value; a failure names the value as "" ---


def _is_int(value: Any) -> bool:
    """An integer as JSON gives it; ``true``/``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int(low: int) -> Callable[[Any], int]:
    rule = f"must be an integer of at least {low}"

    def check(value: Any) -> int:
        _require(_is_int(value) and value >= low, rule)
        return value

    return check


def _choice(options: dict[str, Any]) -> Callable[[Any], Any]:
    rule = f"must be one of {tuple(options)}"

    def check(value: Any) -> Any:
        _require(isinstance(value, str) and value in options, rule)
        return options[value]

    return check


def _address(value: Any) -> DeviceAddress:
    try:
        return parse_address(value)
    except MalformedAddress as exc:
        raise ValidationError("", f"not a valid address: {exc}") from exc


def _built(make: Callable[[str], Any], value: Any) -> Any:
    """``make(value)`` for a string whose rule ``make`` owns; its ValueError
    becomes the rule."""
    _require(isinstance(value, str), "must be a string")
    try:
        return make(value)
    except ValueError as exc:
        raise ValidationError("", str(exc)) from exc


def _name(value: Any) -> str:
    return _built(DeviceName, value).text


def _pin(value: Any) -> Pin:
    return _built(Pin.from_text, value)


def _number(value: Any, rule: str, low=-math.inf, high=math.inf) -> float:
    """A JSON number that fits a float, so not ``true``/``false`` and not the
    ``NaN`` or ``Infinity`` that ``json.loads`` also takes."""
    _require(_is_int(value) or isinstance(value, float), rule)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    _require(math.isfinite(number) and low <= number <= high, rule)
    return number


def _range_m(value: Any) -> float:
    return _number(value, "must be a non-negative number", low=0.0)


def _probability(value: Any) -> float:
    return _number(value, "must be in [0, 1]", 0.0, 1.0)


def _position(value: Any) -> tuple[float, float]:
    _require(isinstance(value, list) and len(value) == 2, "must be [x, y]")
    return tuple(_number(v, "must be [x, y]") for v in value)


def _clock_offset(value: Any) -> int:
    """A local time is packed in signed 64-bit fields (hdp's header, mcap's
    sync response); an offset of at most 2^62 us leaves 2^62 us of run."""
    _require(_is_int(value) and abs(value) <= 2**62, "must be an integer in [-2^62, 2^62]")
    return value


def _bool(value: Any) -> bool:
    _require(isinstance(value, bool), "must be true or false")
    return value


_discoverability = _choice({m.value: m for m in DiscoverabilityMode})
_connectability = _choice({m.value: m for m in ConnectabilityMode})
_specialization = _choice({s.name.lower(): s for s in Specialization})
_non_negative = _int(0)
_positive = _int(1)


def _each(name: str, validate: Callable[..., Any], items: Iterable, *args: Any) -> list[Any]:
    """``validate(item, *args)`` for each ``(index, item)`` pair of ``items``;
    a failure is named under ``name[index]``."""
    out = []
    try:
        for index, item in items:
            out.append(validate(item, *args))
    except ValidationError as exc:
        raise ValidationError(f"{name}[{index}]{exc.field}", exc.rule) from exc.__cause__
    return out


def _whitelist(value: Any) -> frozenset[Specialization]:
    _require(isinstance(value, list), "must be a list of specialization names")
    return frozenset(_each("", _specialization, enumerate(value)))


def _readings(value: Any) -> dict[str, float]:
    _require(isinstance(value, dict) and value, "must be a non-empty object of numbers")
    _each("", _number, value.items(), "must be a finite number")
    return value


def _rate(entry: tuple[Any, Any]) -> tuple[DeviceAddress, int]:
    return _address(entry[0]), _non_negative(entry[1])


def _rates(value: Any) -> dict[DeviceAddress, int]:
    _require(isinstance(value, dict) and value, "must be a non-empty object of address -> bps")
    return dict(_each("", _rate, zip(value, value.items())))  # each named by its key


# -- the schema -----------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One schema field: its check, whether it is required, and its default."""

    check: Callable[[Any], Any]
    required: bool = False
    default: Any = None


_ADDRESS = Field(_address, required=True)

DEVICE_FIELDS: dict[str, Field] = {
    "address": _ADDRESS,
    "name": Field(_name),  # defaults to the address text, see _validate_device
    "position": Field(_position, default=(0.0, 0.0)),
    "radio_range_m": Field(_range_m, default=10.0),
    "clock_offset_us": Field(_clock_offset, default=0),
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

_UNKNOWN_ACTION = f"unknown action; must be one of {sorted(ACTIONS)}"


def _fields(
    table: dict[str, Field], raw: Any, declared: dict[str, DeviceAddress]
) -> dict[str, Any]:
    """Apply one schema table to a JSON object; ``null`` counts as absent. An
    address field whose text is a key of ``declared`` takes its address from
    there. A failure is named relative to the object, as ``.key``."""
    _require(isinstance(raw, dict), "must be an object")
    if not raw.keys() <= table.keys():
        raise ValidationError(f".{next(k for k in raw if k not in table)}", "unknown key")
    out = {}
    try:
        for key, spec in table.items():
            value = raw.get(key)
            if value is None:
                _require(not spec.required, "is required")
                out[key] = spec.default
            elif spec is _ADDRESS and isinstance(value, str) and value in declared:
                out[key] = declared[value]
            else:
                out[key] = spec.check(value)
    except ValidationError as exc:
        raise ValidationError(f".{key}{exc.field}", exc.rule) from exc.__cause__
    return out


# -- rules that span fields ---------------------------------------------------------


def _limited_window(mode: Optional[DiscoverabilityMode], window: Optional[int], fld: str) -> None:
    _require(
        mode is not DiscoverabilityMode.LIMITED or window is not None,
        "limited discoverability requires a positive window",
        fld,
    )


def _set_mode_rules(values: dict[str, Any]) -> None:
    _require(
        values["discoverability"] is not None or values["connectability"] is not None,
        "set_mode needs discoverability and/or connectability",
    )
    _limited_window(values["discoverability"], values["window_us"], ".window_us")


_ACTION_RULES: dict[str, Callable[[dict[str, Any]], None]] = {"set_mode": _set_mode_rules}


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


def _validate_device(raw: Any) -> ScenarioDevice:
    values = _fields(DEVICE_FIELDS, raw, {})
    _limited_window(values["discoverability"], values["limited_window_us"], ".limited_window_us")
    if values["name"] is None:
        values["name"] = str(values["address"])
    return ScenarioDevice(**values)


def _validate_action(
    raw: Any, known: set[DeviceAddress], declared: dict[str, DeviceAddress]
) -> dict[str, Any]:
    _require(isinstance(raw, dict), "must be an object")
    _require("action" in raw, "is required", ".action")
    kind = raw["action"]
    _require(isinstance(kind, str) and kind in ACTIONS, _UNKNOWN_ACTION, ".action")
    values = _fields(_ACTION_TABLES[kind], raw, declared)
    for key, value in values.items():
        for address in value if isinstance(value, dict) else (value,):  # of a dict, its keys
            if isinstance(address, DeviceAddress) and address not in known:
                at = f".{key}" if address is value else f".{key}[{address}]"
                raise ValidationError(at, f"references undefined device {address}")
    rules = _ACTION_RULES.get(kind)
    if rules is not None:
        rules(values)
    return values


def _validate_params(raw: Any) -> SimParams:
    _require(isinstance(raw, dict), "must be an object", "params")
    for key, value in raw.items():
        if key not in PARAM_NAMES:
            raise ValidationError(f"params.{key}", "unknown parameter")
        if not _is_int(value):
            raise ValidationError(f"params.{key}", "must be an integer")
    try:
        return SimParams.with_overrides(raw)
    except ParamError as exc:
        raise ValidationError(f"params.{exc.name}", str(exc)) from exc


def validate_scenario(raw: Any) -> Scenario:
    """Validate a decoded JSON document into a Scenario."""
    _require(isinstance(raw, dict), "top level must be an object", "scenario")
    if not raw.keys() <= _TOP_KEYS:
        raise ValidationError("scenario", f"unknown key(s): {sorted(raw.keys() - _TOP_KEYS)}")
    name = raw.get("name", "unnamed")
    _require(isinstance(name, str), "must be a string", "name")
    _require(
        isinstance(raw.get("devices"), list) and raw["devices"],
        "must be a non-empty list",
        "devices",
    )
    devices = _each("devices", _validate_device, enumerate(raw["devices"]))
    addresses = [dev.address for dev in devices]
    known = set(addresses)
    if len(known) < len(addresses):
        i = next(i for i, a in enumerate(addresses) if a in addresses[:i])
        raise ValidationError(f"devices[{i}].address", f"duplicate address {addresses[i]}")
    # Each declared address text -> its address, so that references skip the parse.
    declared = dict(zip((d["address"] for d in raw["devices"]), addresses))
    try:
        medium = _fields(MEDIUM_FIELDS, raw.get("medium", {}), {})
    except ValidationError as exc:
        raise ValidationError(f"medium{exc.field}", exc.rule) from exc.__cause__
    params = _validate_params(raw.get("params", {}))
    timeline_raw = raw.get("timeline", [])
    _require(isinstance(timeline_raw, list), "must be a list", "timeline")
    timeline = _each("timeline", _validate_action, enumerate(timeline_raw), known, declared)
    for i in range(1, len(timeline)):
        if timeline[i]["t_us"] < timeline[i - 1]["t_us"]:
            raise ValidationError(f"timeline[{i}].t_us", "timeline not sorted")
    return Scenario(name=name, devices=devices, medium=medium, params=params, timeline=timeline)


def load_scenario(path: str) -> Scenario:
    """Read, parse, and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    return validate_scenario(raw)

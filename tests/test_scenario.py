from __future__ import annotations

import copy
import importlib
import json
import math
import pathlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdpsim.core import DeviceAddress
from hdpsim.discovery import ConnectabilityMode, DiscoverabilityMode
from hdpsim.engine import TYPED_EVENTS
from hdpsim.hdp import ChannelKind, Specialization
from hdpsim.metrics import compute_metrics, emit_metrics, metrics_json
from hdpsim.params import SimParams
from hdpsim.runner import HANDLERS, InvariantViolation, ScenarioRun, run_scenario
from hdpsim.scenario import (
    ACTIONS,
    DEVICE_FIELDS,
    MEDIUM_FIELDS,
    ParseError,
    ValidationError,
    load_scenario,
    validate_scenario,
)
from hdpsim.security import Pin

SOURCE = "AA:00:00:00:00:01"
SINK = "AA:00:00:00:00:02"


def minimal_scenario(**extra):
    doc = {
        "name": "test",
        "devices": [
            {"address": SOURCE, "pin": "1234", "role": "source"},
            {
                "address": SINK,
                "position": [1.0, 0.0],
                "pin": "1234",
                "role": "sink",
            },
        ],
        "timeline": [],
    }
    doc.update(extra)
    return doc


def telemetry_timeline(count=5):
    return [
        {"t_us": 0, "action": "start_inquiry", "device": SINK, "duration_us": 100_000},
        {"t_us": 200_000, "action": "page", "device": SINK, "target": SOURCE},
        {
            "t_us": 300_000,
            "action": "associate",
            "source": SOURCE,
            "sink": SINK,
            "specialization": "heart_rate",
        },
        {
            "t_us": 400_000,
            "action": "send_measurement",
            "source": SOURCE,
            "sink": SINK,
            "count": count,
            "interval_us": 100_000,
            "readings": {
                "heart_rate_bpm": 70.0,
                "filling_duration_ms": 150.0,
                "ascending_wave_index_pct": 12.0,
            },
        },
        {"t_us": 2_000_000, "action": "run_until"},
    ]


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(minimal_scenario()))
    scenario = load_scenario(str(path))
    assert scenario.name == "test"
    assert [str(d.address) for d in scenario.devices] == [SOURCE, SINK]
    assert scenario.devices[0].name == SOURCE  # defaults to the address text


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "name": "x",\n  !\n}')
    with pytest.raises(ParseError) as info:
        load_scenario(str(path))
    assert info.value.line == 3
    assert info.value.column == 3


@pytest.mark.parametrize(
    "mutate, field_part, rule_part",
    [
        (lambda d: d.update(bogus=1), "scenario", "unknown key"),
        (lambda d: d.update(devices=[]), "devices", "non-empty"),
        (
            lambda d: d["devices"][0].update(address="nope"),
            "devices[0].address",
            "not a valid address",
        ),
        (
            lambda d: d["devices"][0].update(discoverability="limited"),
            "devices[0].limited_window_us",
            "positive window",
        ),
        (
            lambda d: d["devices"][1].update(address=SOURCE),
            "devices[1].address",
            "duplicate",
        ),
        (
            lambda d: d.update(
                timeline=[{"t_us": 0, "action": "levitate"}]
            ),
            "timeline[0].action",
            "unknown action",
        ),
        (
            lambda d: d.update(
                timeline=[{"t_us": 0, "action": "page", "device": SOURCE}]
            ),
            "timeline[0].target",
            "required",
        ),
        (
            lambda d: d.update(
                timeline=[
                    {
                        "t_us": 0,
                        "action": "page",
                        "device": SOURCE,
                        "target": "AA:00:00:00:00:99",
                    }
                ]
            ),
            "timeline[0].target",
            "undefined device",
        ),
        (
            lambda d: d.update(medium={"loss_probability": 1.2}),
            "medium.loss_probability",
            "[0, 1]",
        ),
        (lambda d: d.update(params={"warp_speed": 9}), "params.warp_speed", "unknown"),
        (
            lambda d: d.update(params={"max_payload_bytes": 1024}),
            "params.max_payload_bytes",
            "unknown",
        ),
        (
            lambda d: d.update(params={"freq_low": 5, "freq_high": 3}),
            "params.freq_high",
            "from freq_low to 31",
        ),
        (lambda d: d.update(params={"freq_high": 40}), "params.freq_high", "31"),
        (lambda d: d["devices"][0].update(name="x" * 249), "devices[0].name", "248"),
        (lambda d: d["devices"][0].update(position=[10**400, 0]), "devices[0].position", "[x, y]"),
        (
            lambda d: d.update(
                timeline=[
                    {
                        "t_us": 0,
                        "action": "admit_traffic",
                        "master": SINK,
                        "requested": {SOURCE: 1000, "AA:00:00:00:00:99": 1000},
                    }
                ]
            ),
            "timeline[0].requested[AA:00:00:00:00:99]",
            "references undefined device",
        ),
    ],
)
def test_validation_error_names_field_and_rule(mutate, field_part, rule_part):
    doc = minimal_scenario()
    mutate(doc)
    with pytest.raises(ValidationError) as info:
        validate_scenario(doc)
    assert field_part in info.value.field
    assert rule_part in info.value.rule


def test_params_with_an_unknown_override_raise_value_error():
    with pytest.raises(ValueError, match=r"unknown override\(s\): \['tyop', 'warp_speed'\]"):
        SimParams.with_overrides({"warp_speed": 9, "buffer_capacity": 4, "tyop": 1})
    assert SimParams.with_overrides({"buffer_capacity": 4}).buffer_capacity == 4


@pytest.mark.parametrize(
    "mutate, field",
    [
        (
            lambda d: d["timeline"].append(
                {"t_us": 0, "action": "start_inquiry", "device": SINK, "duration_us": True}
            ),
            "timeline[0].duration_us",
        ),
        (lambda d: d["timeline"].append({"t_us": False, "action": "run_until"}), "timeline[0].t_us"),
        (lambda d: d["devices"][0].update(clock_offset_us=True), "devices[0].clock_offset_us"),
        (lambda d: d["devices"][1].update(rate_cap_bps=True), "devices[1].rate_cap_bps"),
        (lambda d: d.update(medium={"jitter_us": True}), "medium.jitter_us"),
        (lambda d: d.update(params={"buffer_capacity": True}), "params.buffer_capacity"),
    ],
)
def test_json_booleans_are_not_integers(mutate, field):
    doc = minimal_scenario()
    mutate(doc)
    with pytest.raises(ValidationError) as info:
        validate_scenario(doc)
    assert info.value.field == field


READINGS = {
    "heart_rate_bpm": 70.0,
    "filling_duration_ms": 150.0,
    "ascending_wave_index_pct": 12.0,
}

# One valid example of each action, every field of its table set.
ACTION_EXAMPLES = {
    "set_mode": {
        "device": SOURCE,
        "discoverability": "limited",
        "connectability": "connectable",
        "window_us": 1_000,
    },
    "start_inquiry": {"device": SINK, "duration_us": 100_000},
    "page": {"device": SINK, "target": SOURCE},
    "associate": {
        "source": SOURCE,
        "sink": SINK,
        "specialization": "heart_rate",
        "auto_reconnect": True,
    },
    "send_measurement": {
        "source": SOURCE,
        "sink": SINK,
        "readings": READINGS,
        "count": 2,
        "interval_us": 100_000,
    },
    "move_device": {"device": SOURCE, "position": [0.5, 0.0]},
    "drop_link": {"a": SOURCE, "b": SINK},
    "admit_traffic": {"master": SINK, "requested": {SOURCE: 1_000}},
    "release": {"source": SOURCE, "sink": SINK},
    "request_channel": {"source": SOURCE, "sink": SINK, "kind": "data"},
    "run_until": {},
}


def _with_reading(doc, value):
    """Append a ``send_measurement`` whose heart rate reading is ``value``."""
    action = dict(ACTION_EXAMPLES["send_measurement"], t_us=0, action="send_measurement")
    action["readings"] = dict(READINGS, heart_rate_bpm=value)
    doc["timeline"].append(action)


# One field of each kind the README calls a number -> how to set it.
NUMBER_FIELDS = {
    "devices[0].position": lambda d, v: d["devices"][0].update(position=[0.0, v]),
    "devices[0].radio_range_m": lambda d, v: d["devices"][0].update(radio_range_m=v),
    "medium.loss_probability": lambda d, v: d.update(medium={"loss_probability": v}),
    "timeline[0].readings[heart_rate_bpm]": _with_reading,
}


@pytest.mark.parametrize("value", [True, False, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_json_booleans_and_non_finite_values_are_not_numbers(field, value):
    doc = minimal_scenario()
    NUMBER_FIELDS[field](doc, value)
    with pytest.raises(ValidationError) as info:
        validate_scenario(doc)
    assert info.value.field == field


@pytest.mark.parametrize("offset", [2**62 + 1, -(2**62) - 1, 2**63])
def test_clock_offsets_beyond_2_62_us_are_rejected(offset):
    doc = minimal_scenario()
    doc["devices"][0]["clock_offset_us"] = offset
    with pytest.raises(ValidationError) as info:
        validate_scenario(doc)
    assert info.value.field == "devices[0].clock_offset_us"
    assert info.value.rule == "must be an integer in [-2^62, 2^62]"


@pytest.mark.parametrize("offset", [2**62, -(2**62)])
def test_a_clock_offset_of_2_62_us_packs_into_the_local_time_fields(offset):
    """hdp's header and mcap's sync response carry a device's local time in
    signed 64-bit fields."""
    doc = minimal_scenario(timeline=telemetry_timeline(2))
    doc["devices"][0]["clock_offset_us"] = offset
    trace, report = run_scenario(validate_scenario(doc), 1)
    assert report.measurements.delivered == 2
    assert report.sync == {"offset_us": offset, "accuracy_us": 1}
    assert not [e for e in trace.events if e.ev == "error"]


def test_action_examples_set_every_field_of_the_table():
    assert {k: set(v) for k, v in ACTION_EXAMPLES.items()} == {
        k: set(v) for k, v in ACTIONS.items()
    }


def test_runner_handles_exactly_the_actions_in_the_table():
    assert set(HANDLERS) == set(ACTIONS)


@pytest.mark.parametrize("kind", sorted(ACTIONS))
def test_unknown_action_key_is_rejected_by_name(kind):
    action = {"t_us": 0, "action": kind, **ACTION_EXAMPLES[kind], "tyop": 1}
    with pytest.raises(ValidationError) as info:
        validate_scenario(minimal_scenario(timeline=[action]))
    assert info.value.field == "timeline[0].tyop"
    assert info.value.rule == "unknown key"


@pytest.mark.parametrize("value", ["maybe", 1, 0, []])
def test_auto_reconnect_must_be_a_boolean(value):
    action = {"t_us": 0, "action": "associate", **ACTION_EXAMPLES["associate"]}
    action["auto_reconnect"] = value
    with pytest.raises(ValidationError) as info:
        validate_scenario(minimal_scenario(timeline=[action]))
    assert info.value.field == "timeline[0].auto_reconnect"


def test_validation_returns_typed_values_with_defaults_filled():
    doc = minimal_scenario(
        timeline=[
            {"t_us": 0, "action": kind, **fields}
            for kind, fields in ACTION_EXAMPLES.items()
        ]
    )
    del doc["timeline"][3]["auto_reconnect"]
    del doc["timeline"][4]["count"], doc["timeline"][4]["interval_us"]
    doc["devices"][1]["sink_whitelist"] = ["heart_rate"]
    scenario = validate_scenario(doc)
    source, sink = scenario.devices
    assert source.address == DeviceAddress.parse(SOURCE)
    assert source.discoverability is DiscoverabilityMode.DISCOVERABLE
    assert source.connectability is ConnectabilityMode.CONNECTABLE
    assert source.position == (0.0, 0.0) and source.radio_range_m == 10.0
    assert source.pin == Pin.from_text("1234")
    assert sink.sink_whitelist == {Specialization.HEART_RATE}
    assert scenario.medium == {"loss_probability": 0.0, "propagation_us": 1, "jitter_us": 0}
    by_kind = {a["action"]: a for a in scenario.timeline}
    assert by_kind["set_mode"]["discoverability"] is DiscoverabilityMode.LIMITED
    assert by_kind["page"]["target"] == DeviceAddress.parse(SOURCE)
    assert by_kind["associate"]["specialization"] is Specialization.HEART_RATE
    assert by_kind["associate"]["auto_reconnect"] is True
    assert by_kind["send_measurement"]["count"] == 1
    assert by_kind["send_measurement"]["interval_us"] == 1_000_000
    assert by_kind["move_device"]["position"] == (0.5, 0.0)
    assert by_kind["admit_traffic"]["requested"] == {DeviceAddress.parse(SOURCE): 1_000}
    assert by_kind["request_channel"]["kind"] is ChannelKind.DATA


# The 65 device, medium and action fields (``t_us`` and ``action`` included),
# as (the path of its object, the action it belongs to, its key).
SCHEMA_FIELDS = [
    *(("devices[0]", None, key) for key in DEVICE_FIELDS),
    *(("medium", None, key) for key in MEDIUM_FIELDS),
    *(
        ("timeline[0]", kind, key)
        for kind, fields in ACTIONS.items()
        for key in ("t_us", "action", *fields)
    ),
]


@pytest.mark.parametrize(
    "where, kind, key",
    SCHEMA_FIELDS,
    ids=[f"{kind or where}.{key}" for where, kind, key in SCHEMA_FIELDS],
)
def test_every_field_rejects_an_unhashable_value_by_its_own_path(where, kind, key):
    """``[[]]`` cannot be a key of any lookup table: each field must reject it
    with a ValidationError at its own path, never with a TypeError."""
    doc = minimal_scenario(medium={})
    if where == "devices[0]":
        obj = doc["devices"][0]
    elif where == "medium":
        obj = doc["medium"]
    else:
        obj = {"t_us": 0, "action": kind, **copy.deepcopy(ACTION_EXAMPLES[kind])}
        doc["timeline"].append(obj)
    obj[key] = [[]]
    with pytest.raises(ValidationError) as info:
        validate_scenario(doc)
    nested = "[0]" if key == "sink_whitelist" else ""  # the list's first element
    assert info.value.field == f"{where}.{key}{nested}"


def _named_in_lower_case(doc):
    """``doc`` with every address its timeline names written in lower case."""
    doc = copy.deepcopy(doc)
    for action in doc["timeline"]:
        for key, value in action.items():
            if value in (SOURCE, SINK):
                action[key] = value.lower()
    return doc


def test_a_declared_address_named_in_lower_case_runs_as_its_upper_case_twin():
    upper = minimal_scenario(timeline=telemetry_timeline(5))
    lower = _named_in_lower_case(upper)
    assert "aa:00:00:00:00:01" in json.dumps(lower["timeline"])
    runs = [run_scenario(validate_scenario(doc), seed=5) for doc in (upper, lower)]
    (trace_upper, report_upper), (trace_lower, report_lower) = runs
    assert trace_lower.to_jsonl() == trace_upper.to_jsonl()
    assert metrics_json(report_lower) == metrics_json(report_upper)


def test_an_undeclared_address_in_lower_case_is_named_in_upper_case():
    page = {"t_us": 0, "action": "page", "device": SINK, "target": "aa:00:00:00:00:99"}
    with pytest.raises(ValidationError) as info:
        validate_scenario(minimal_scenario(timeline=[page]))
    assert str(info.value) == "timeline[0].target: references undefined device AA:00:00:00:00:99"


# -- the README documents the tables ------------------------------------------------

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_table(first_header: str) -> dict[str, list[str]]:
    """First cell -> the other cells of each row of the README table whose
    header starts with ``first_header``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {first_header} |"))
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[1:]
    return rows


def _json_default(value):
    if isinstance(value, (DiscoverabilityMode, ConnectabilityMode)):
        value = value.value
    return json.dumps(list(value) if isinstance(value, tuple) else value)


def _named_fields(cell: str) -> dict[str, str | None]:
    """Field name -> documented default, for each `field` or `field` (`default`)."""
    return {
        name: default or None
        for name, default in re.findall(r"`([a-z_]+)`(?: \(`([^`]*)`\))?", cell)
    }


def test_readme_action_table_matches_the_schema():
    rows = _readme_table("action")
    assert set(rows) == set(ACTIONS)
    for kind, fields in ACTIONS.items():
        required, optional = (_named_fields(cell) for cell in rows[kind][:2])
        assert set(required) == {k for k, f in fields.items() if f.required}, kind
        assert optional == {
            k: None if f.default is None else _json_default(f.default)
            for k, f in fields.items()
            if not f.required
        }, kind


def test_readme_device_fields_match_the_schema():
    rows = _readme_table("field")
    assert set(rows) == set(DEVICE_FIELDS)
    for name, spec in DEVICE_FIELDS.items():
        rule, default = rows[name]
        assert rule.startswith("required") == spec.required, name
        if spec.default is not None:
            assert default == f"`{_json_default(spec.default)}`", name


def test_readme_per_reading_events_match_the_typed_event_table():
    rows = _readme_table("event")
    assert set(rows) == set(TYPED_EVENTS)
    for ev, fields in TYPED_EVENTS.items():
        documented = re.findall(r"`([a-z_]+)` \((int|bool)\)", rows[ev][0])
        assert documented == [(name, kind.__name__) for name, kind in fields], ev


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """Every Python block of the README runs, in order, in one namespace."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) >= 3
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_imports_resolve():
    """Every name a README import takes from ``hdpsim`` or one of its modules
    is there."""
    text = README.read_text(encoding="utf-8")
    imports = re.findall(r"^from (hdpsim[.\w]*) import (\([^)]*\)|.*)$", text, re.M)
    assert any(module == "hdpsim" for module, _names in imports)
    for module, names in imports:
        found = importlib.import_module(module)
        for name in re.findall(r"\w+", names):
            assert hasattr(found, name), f"{module}.{name}"


# -- any mutation of a valid scenario is rejected or builds -----------------------


def full_scenario():
    """A valid scenario that sets every device, medium and action field."""
    doc = minimal_scenario(
        medium={"loss_probability": 0.01, "propagation_us": 1, "jitter_us": 2},
        params={"freq_low": 0, "freq_high": 31, "buffer_capacity": 16},
        timeline=[
            {"t_us": 1_000 * i, "action": kind, **copy.deepcopy(fields)}
            for i, (kind, fields) in enumerate(ACTION_EXAMPLES.items())
        ],
    )
    doc["devices"][0].update(
        name="sensor",
        position=[0.0, 0.0],
        radio_range_m=10.0,
        clock_offset_us=300,
        discoverability="limited",
        limited_window_us=5_000_000,
        connectability="connectable",
        sink_whitelist=["heart_rate"],
        rate_cap_bps=1_000_000,
    )
    return doc


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=4,
)
LONG_NAME = "\u00e9" * 125  # 250 UTF-8 bytes
NAMED_VALUES = st.sampled_from(
    [SOURCE, "limited", "non_connectable", "heart_rate", "audio", LONG_NAME, "", 0, 1, 32, 10**400]
)


def test_full_scenario_is_valid():
    validate_scenario(full_scenario())


@settings(max_examples=300, deadline=None, derandomize=True)
@example(path=("params", "freq_low"), op="retype", key="tyop", value=32)
@example(path=("devices", 0, "name"), op="retype", key="tyop", value=LONG_NAME)
@given(
    path=st.sampled_from(list(_paths(full_scenario()))),
    op=st.sampled_from(["drop", "add", "retype"]),
    key=st.sampled_from(["tyop", "name", "count", "window_us", "auto_reconnect"]),
    value=JSON_VALUES | NAMED_VALUES,
)
def test_mutated_scenario_is_rejected_or_builds(path, op, key, value):
    doc = full_scenario()
    node = doc
    for step in path[:-1]:
        node = node[step]
    target = node[path[-1]] if path else doc
    if op == "add" and isinstance(target, dict):
        target[key] = value
    elif path and op == "drop":
        del node[path[-1]]
    elif path:
        node[path[-1]] = value
    try:
        scenario = validate_scenario(doc)
    except ValidationError:
        return
    ScenarioRun(scenario, seed=1)


def test_unsorted_timeline_is_rejected_with_named_rule():
    doc = minimal_scenario(
        timeline=[
            {"t_us": 100, "action": "run_until"},
            {"t_us": 50, "action": "run_until"},
        ]
    )
    with pytest.raises(ValidationError) as info:
        validate_scenario(doc)
    assert info.value.rule == "timeline not sorted"
    assert info.value.field == "timeline[1].t_us"


def test_equal_timestamps_are_allowed():
    doc = minimal_scenario(
        timeline=[
            {"t_us": 100, "action": "run_until"},
            {"t_us": 100, "action": "run_until"},
        ]
    )
    validate_scenario(doc)


# -- running ----------------------------------------------------------------


def test_run_scenario_delivers_measurements_and_reports_metrics():
    scenario = validate_scenario(minimal_scenario(timeline=telemetry_timeline()))
    trace, report = run_scenario(scenario, seed=7)
    counters = report.measurements
    assert counters.sent == 5
    assert counters.delivered == 5
    assert counters.evicted == 0
    assert counters.in_flight == 0
    assert report.discovery_latency_us and report.discovery_latency_us[0] is not None
    assert report.create_handshake_msgs == [4]
    assert report.sync is not None and report.sync["offset_us"] == 0
    assert trace.events[-1].t_us <= 2_000_000


def test_run_scenario_is_deterministic_per_seed():
    scenario = validate_scenario(minimal_scenario(timeline=telemetry_timeline()))
    trace_a, report_a = run_scenario(scenario, seed=11)
    trace_b, report_b = run_scenario(scenario, seed=11)
    trace_c, _ = run_scenario(scenario, seed=12)
    assert trace_a.to_jsonl() == trace_b.to_jsonl()
    assert metrics_json(report_a) == metrics_json(report_b)
    assert trace_c.sha256() != trace_a.sha256()


def test_failed_actions_become_error_events():
    doc = minimal_scenario(
        timeline=[
            # Page without prior discovery: NotDiscovered, captured not raised.
            {"t_us": 0, "action": "page", "device": SINK, "target": SOURCE},
            {"t_us": 1000, "action": "run_until"},
        ]
    )
    scenario = validate_scenario(doc)
    trace, report = run_scenario(scenario, seed=1)
    errors = [e for e in trace if e.ev == "error"]
    assert len(errors) == 1
    assert errors[0].detail["action"] == "page"
    assert errors[0].detail["error"] == "NotDiscovered"
    assert report.errors == {"NotDiscovered": 1}


def test_audio_channel_request_fails_as_error_event():
    doc = minimal_scenario(
        timeline=[
            {"t_us": 0, "action": "start_inquiry", "device": SINK, "duration_us": 50_000},
            {"t_us": 100_000, "action": "page", "device": SINK, "target": SOURCE},
            {
                "t_us": 200_000,
                "action": "request_channel",
                "source": SOURCE,
                "sink": SINK,
                "kind": "audio",
            },
            {"t_us": 300_000, "action": "run_until"},
        ]
    )
    scenario = validate_scenario(doc)
    trace, report = run_scenario(scenario, seed=1)
    errors = [e for e in trace if e.ev == "error"]
    assert [e.detail["error"] for e in errors] == ["AudioNotSupported"]
    assert report.errors == {"AudioNotSupported": 1}


def test_until_flag_cuts_the_run_short():
    scenario = validate_scenario(minimal_scenario(timeline=telemetry_timeline()))
    trace, _ = run_scenario(scenario, seed=7, until_us=250_000)
    assert trace.events[-1].t_us <= 250_000
    assert not any(e.ev == "assoc" for e in trace)


def test_drop_link_action_forces_reconnect_cycle():
    timeline = telemetry_timeline()
    timeline.insert(
        4, {"t_us": 700_000, "action": "drop_link", "a": SOURCE, "b": SINK}
    )
    timeline[-1]["t_us"] = 10_000_000
    scenario = validate_scenario(minimal_scenario(timeline=timeline))
    trace, report = run_scenario(scenario, seed=7)
    assert any(e.ev == "link_lost" for e in trace)
    assert any(e.ev == "link_restored" for e in trace)
    assert report.reconnect_handshake_msgs == [2]
    assert report.measurements.delivered == report.measurements.sent == 5


def test_a_send_series_of_one_sends_one_reading():
    # The horizon, at 2 s, is well past the series' start plus its interval.
    scenario = validate_scenario(minimal_scenario(timeline=telemetry_timeline(count=1)))
    trace, report = run_scenario(scenario, seed=7)
    assert report.measurements.sent == report.measurements.delivered == 1
    assert sum(e.ev == "measurement_tx" for e in trace) == 1


@pytest.mark.parametrize("counter", ["delivered", "abandoned"])
def test_a_fold_that_settles_more_readings_than_were_sent_raises(counter):
    """One reading too many delivered (more than sent), or abandoned (a
    negative number in flight), breaks the accounting at the horizon."""
    run = ScenarioRun(validate_scenario(minimal_scenario(timeline=telemetry_timeline(2))), 7)
    report = run.metrics.report

    def miscounted():
        counted = report()
        setattr(counted.measurements, counter, getattr(counted.measurements, counter) + 1)
        return counted

    run.metrics.report = miscounted
    with pytest.raises(InvariantViolation, match="measurement accounting") as breach:
        run.run()
    assert breach.value.t_us == 2_000_000


@pytest.mark.parametrize("auto_reconnect", [True, False])
def test_auto_reconnect_decides_whether_a_dropped_link_is_restored(auto_reconnect):
    # Leaving auto_reconnect out is test_drop_link_action_forces_reconnect_cycle.
    timeline = telemetry_timeline()
    timeline[2]["auto_reconnect"] = auto_reconnect
    timeline.insert(4, {"t_us": 700_000, "action": "drop_link", "a": SOURCE, "b": SINK})
    timeline[-1]["t_us"] = 10_000_000
    trace, _ = run_scenario(validate_scenario(minimal_scenario(timeline=timeline)), seed=7)
    assert any(e.ev == "link_lost" for e in trace)
    assert any(e.ev == "link_restored" for e in trace) is auto_reconnect


def eager_send_measurement(run, action):
    """Queue every later send when the action runs (the lazy series' model)."""
    engine = run.stack.engine
    send = run.stack.hdp.send_measurement
    assoc = run._assoc_for(action)
    send(assoc, action["readings"])
    for i in range(1, action["count"]):
        engine.schedule(
            engine.now + i * action["interval_us"],
            lambda: run._attempt("send_measurement", send, assoc, action["readings"]),
        )


def test_lazy_send_series_keeps_the_order_of_ties(monkeypatch):
    # The second source's sends and its move land on the exact times of the
    # first source's later sends, which are queued one at a time.
    other = "AA:00:00:00:00:03"
    readings = telemetry_timeline()[3]["readings"]

    def send(source, t_us, count):
        return {
            "t_us": t_us,
            "action": "send_measurement",
            "source": source,
            "sink": SINK,
            "count": count,
            "interval_us": 1_000_000,
            "readings": readings,
        }

    doc = minimal_scenario(
        timeline=[
            {"t_us": 0, "action": "start_inquiry", "device": SINK, "duration_us": 100_000},
            {"t_us": 200_000, "action": "page", "device": SINK, "target": SOURCE},
            {"t_us": 300_000, "action": "page", "device": SINK, "target": other},
        ]
        + [
            {
                "t_us": t_us,
                "action": "associate",
                "source": source,
                "sink": SINK,
                "specialization": "heart_rate",
            }
            for t_us, source in ((500_000, SOURCE), (600_000, other))
        ]
        + [
            send(SOURCE, 1_000_000, 6),
            send(other, 2_000_000, 4),
            {"t_us": 3_000_000, "action": "move_device", "device": other, "position": [0.0, 2.0]},
            {"t_us": 8_000_000, "action": "run_until"},
        ]
    )
    doc["devices"].append({"address": other, "position": [0.0, 1.0], "pin": "1234", "role": "source"})
    scenario = validate_scenario(doc)
    lazy, lazy_report = run_scenario(scenario, seed=3)
    monkeypatch.setitem(HANDLERS, "send_measurement", eager_send_measurement)
    eager, _ = run_scenario(scenario, seed=3)
    assert lazy.to_jsonl() == eager.to_jsonl()
    assert lazy_report.measurements.delivered == 10
    at_3s = {(e.ev, e.detail.get("assoc_id")) for e in lazy if e.t_us == 3_000_000}
    assert {("move", None), ("measurement_tx", 1), ("measurement_tx", 2)} <= at_3s


# -- metrics shape ----------------------------------------------------------


def test_metrics_emit_is_stable_and_sorted(tmp_path):
    scenario = validate_scenario(minimal_scenario(timeline=telemetry_timeline()))
    _, report = run_scenario(scenario, seed=7)
    out = tmp_path / "m.json"
    emit_metrics(report, str(out))
    text = out.read_text()
    assert text == metrics_json(report)
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)
    assert parsed["measurements"]["sent"] == 5


def test_metrics_accounting_identity_holds_mid_flight():
    # Cut the run while traffic is still pending: the identity
    # delivered + evicted + abandoned + in_flight == sent must still hold.
    scenario = validate_scenario(minimal_scenario(timeline=telemetry_timeline()))
    _, report = run_scenario(scenario, seed=7, until_us=450_000)
    c = report.measurements
    assert c.delivered + c.evicted + c.abandoned + c.in_flight == c.sent


def test_compute_metrics_on_empty_trace():
    report = compute_metrics([])
    assert report.measurements.sent == 0
    assert report.discovery_latency_us == []
    assert report.sync is None


def test_admit_traffic_and_request_channel_run_from_a_scenario():
    # A sink pages two sources: the first rate request fits the piconet's
    # cap, the second is scaled down to it; a data channel request opens the
    # control channel and creates a streaming channel, an audio one fails.
    near, far = "AA:00:00:00:00:03", "AA:00:00:00:00:04"
    doc = {
        "devices": [
            {"address": SINK, "pin": "1234", "role": "sink"},
            {"address": near, "position": [1.0, 0.0], "pin": "1234", "role": "source"},
            {"address": far, "position": [1.5, 0.0], "pin": "1234", "role": "source"},
        ],
        "timeline": [
            {"t_us": 0, "action": "start_inquiry", "device": SINK, "duration_us": 2_000_000},
            {"t_us": 2_100_000, "action": "page", "device": SINK, "target": near},
            {"t_us": 2_200_000, "action": "page", "device": SINK, "target": far},
            {
                "t_us": 3_000_000,
                "action": "admit_traffic",
                "master": SINK,
                "requested": {near: 400_000, far: 500_000},
            },
            {
                "t_us": 3_100_000,
                "action": "admit_traffic",
                "master": SINK,
                "requested": {near: 600_000, far: 900_000},
            },
            {
                "t_us": 3_200_000,
                "action": "request_channel",
                "source": near,
                "sink": SINK,
                "kind": "data",
            },
            {
                "t_us": 3_300_000,
                "action": "request_channel",
                "source": far,
                "sink": SINK,
                "kind": "audio",
            },
            {"t_us": 4_000_000, "action": "run_until"},
        ],
    }
    trace, report = run_scenario(validate_scenario(doc), seed=1)
    admits = [e.detail for e in trace if e.ev == "admit"]
    assert [(a["requested_bps"], a["cap_bps"], a["granted"]) for a in admits] == [
        (900_000, 1_000_000, {near: 400_000, far: 500_000}),
        (1_500_000, 1_000_000, {near: 400_000, far: 600_000}),
    ]
    assert report.granted_bps == {SINK: {near: 400_000, far: 600_000}}
    channel_events = [
        (e.ev, e.detail.get("op")) for e in trace if e.t_us >= 3_200_000 and e.ev != "error"
    ]
    assert channel_events == [
        ("control_open", None),
        ("mcap_tx", "create_req"),
        ("mcap_tx", "create_accept"),
        ("mcap_tx", "create_config"),
        ("mcap_tx", "create_confirm"),
        ("mdl_create", None),
    ]
    created = [e.detail for e in trace if e.ev == "mdl_create"]
    assert created == [{"mdl_id": 1, "peer": SINK, "reliable": False}]
    assert [e.detail["error"] for e in trace if e.ev == "error"] == ["AudioNotSupported"]

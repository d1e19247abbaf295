from __future__ import annotations

import json

import pytest

from hdpsim.metrics import compute_metrics, emit_metrics, metrics_json
from hdpsim.runner import run_scenario
from hdpsim.scenario import (
    ParseError,
    ValidationError,
    load_scenario,
    validate_scenario,
)

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
    ],
)
def test_validation_error_names_field_and_rule(mutate, field_part, rule_part):
    doc = minimal_scenario()
    mutate(doc)
    with pytest.raises(ValidationError) as info:
        validate_scenario(doc)
    assert field_part in info.value.field
    assert rule_part in info.value.rule


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

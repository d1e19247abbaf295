from __future__ import annotations

import copy
import hashlib
import json
import logging
import os
import re
import tracemalloc
from pathlib import Path

import pytest

from hdpsim import cli, engine
from hdpsim.engine import Trace
from hdpsim.link import LinkManager
from hdpsim.runner import run_scenario
from hdpsim.scenario import validate_scenario

SOURCE = "AA:00:00:00:00:01"
SINK = "AA:00:00:00:00:02"

SCENARIO = {
    "name": "cli-test",
    "devices": [
        {"address": SOURCE, "pin": "1234", "role": "source"},
        {"address": SINK, "position": [1.0, 0.0], "pin": "1234", "role": "sink"},
    ],
    "timeline": [
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
            "readings": {
                "heart_rate_bpm": 64.0,
                "filling_duration_ms": 140.0,
                "ascending_wave_index_pct": 11.0,
            },
        },
        {"t_us": 1_000_000, "action": "run_until"},
    ],
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1  # diagnostics are a single JSON line
    return json.loads(err[0])


def test_validate_ok(scenario_file, capsys):
    assert cli.main(["validate", "--scenario", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "ok: cli-test" in out


def test_validate_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["validate", "--scenario", str(path)]) == 2
    diag = stderr_json(capsys)
    assert diag["error"] == "ParseError"


def test_validate_schema_violation_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "devices": [], "timeline": []}))
    assert cli.main(["validate", "--scenario", str(path)]) == 2
    diag = stderr_json(capsys)
    assert diag["error"] == "ValidationError"
    assert "devices" in diag["detail"]


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_an_infinite_reading_exits_2_naming_the_field(command, tmp_path, capsys):
    """A pulsemeter copy whose first reading is ``Infinity``, which
    ``json.loads`` takes, fails validation before anything runs."""
    pulsemeter = Path(cli.__file__).parent / "scenarios" / "pulsemeter.json"
    doc = json.loads(pulsemeter.read_text(encoding="utf-8"))
    index, send = next((i, a) for i, a in enumerate(doc["timeline"]) if "readings" in a)
    send["readings"]["heart_rate_bpm"] = float("inf")
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(doc))
    outputs = ["--seed", "1", "--trace", str(tmp_path / "t"), "--metrics", str(tmp_path / "m")]
    argv = [command, "--scenario", str(path)] + (outputs if command == "simulate" else [])
    assert cli.main(argv) == 2
    diag = stderr_json(capsys)
    assert diag["error"] == "ValidationError"
    assert f"timeline[{index}].readings[heart_rate_bpm]" in diag["detail"]


def test_missing_scenario_file_exits_4(tmp_path, capsys):
    assert (
        cli.main(["validate", "--scenario", str(tmp_path / "absent.json")]) == 4
    )
    diag = stderr_json(capsys)
    assert diag["error"] in {"FileNotFoundError", "OSError"}


def test_simulate_writes_trace_and_metrics(scenario_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.json"
    rc = cli.main(
        [
            "simulate",
            "--scenario",
            str(scenario_file),
            "--seed",
            "5",
            "--trace",
            str(trace_path),
            "--metrics",
            str(metrics_path),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().err == ""  # success is quiet on stderr
    lines = trace_path.read_text().splitlines()
    assert lines, "trace must not be empty"
    for line in lines:
        event = json.loads(line)
        assert {"t_us", "seq", "ev", "dev"} <= set(event)
    metrics = json.loads(metrics_path.read_text())
    assert metrics["measurements"]["delivered"] == 1


@pytest.mark.parametrize("level", [logging.WARNING, logging.INFO], ids=["warn", "info"])
def test_simulate_serialises_the_trace_once(scenario_file, tmp_path, monkeypatch, caplog, level):
    serialised, to_jsonl_calls = [], []
    trace_line, typed_line = engine.trace_line, engine.TypedEvent.line

    def counted(t_us, seq, ev, dev, detail):
        serialised.append(seq)
        return trace_line(t_us, seq, ev, dev, detail)

    def counted_typed(typed, values, dev, seq, t_us):
        serialised.append(seq)
        return typed_line(typed, values, dev, seq, t_us)

    # A line is made by trace_line or, for a typed event, by its template.
    monkeypatch.setattr(engine, "trace_line", counted)
    monkeypatch.setattr(engine.TypedEvent, "line", counted_typed)
    monkeypatch.setattr(engine, "TraceEvent", None)  # a streamed run builds none
    monkeypatch.setattr(Trace, "to_jsonl", lambda trace: to_jsonl_calls.append(1) or "")
    caplog.set_level(level, logger="hdpsim")
    trace_path = tmp_path / "trace.jsonl"
    argv = ["simulate", "--scenario", str(scenario_file), "--seed", "5"]
    argv += ["--trace", str(trace_path), "--metrics", str(tmp_path / "metrics.json")]
    assert cli.main(argv) == 0
    lines = trace_path.read_text().splitlines()
    assert lines
    assert serialised == list(range(len(lines)))  # once per written line, in order
    assert to_jsonl_calls == []
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trace sha256")]
    assert logged == ([f"trace sha256 {digest}"] if level == logging.INFO else [])


def test_invariant_breach_exits_3_with_the_trace_up_to_it(
    scenario_file, tmp_path, monkeypatch, capsys
):
    full_path = tmp_path / "full.jsonl"
    argv = ["simulate", "--scenario", str(scenario_file), "--seed", "5", "--metrics"]
    assert cli.main(argv + [str(tmp_path / "full.json"), "--trace", str(full_path)]) == 0
    full = full_path.read_text()

    violations = LinkManager.topology_violations

    def failing(links):
        if links.engine.now > 250_000:
            return ["injected violation"]
        return violations(links)

    breach_us = 300_000  # the associate action runs the first check after 250 ms

    monkeypatch.setattr(LinkManager, "topology_violations", failing)
    trace_path, metrics_path = tmp_path / "trace.jsonl", tmp_path / "metrics.json"
    assert cli.main(argv + [str(metrics_path), "--trace", str(trace_path)]) == 3
    diag = stderr_json(capsys)
    assert diag == {"error": "InvariantViolation", "detail": f"injected violation at t={breach_us}us"}
    assert not metrics_path.exists()
    partial = trace_path.read_text()
    assert partial and partial.endswith("\n")
    assert full.startswith(partial) and len(partial) < len(full)
    times = [json.loads(line)["t_us"] for line in partial.splitlines()]
    assert times[-1] <= breach_us < json.loads(full.splitlines()[len(times)])["t_us"]


def test_streamed_run_keeps_no_events_and_peaks_below_half_of_in_memory(tmp_path):
    raw = copy.deepcopy(SCENARIO)
    send = raw["timeline"][3]
    send["count"], send["interval_us"] = 600, 1_000_000  # ten simulated minutes
    raw["timeline"][-1]["t_us"] = 601_000_000
    scenario = validate_scenario(raw)

    def run_traced(out):
        tracemalloc.start()
        try:
            trace, _report = run_scenario(scenario, 5, out=out)
            return trace, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        streamed, streamed_peak = run_traced(out)
    kept, kept_peak = run_traced(None)
    written = path.read_text(encoding="utf-8")
    assert streamed.events == []
    assert len(streamed) == written.count("\n") == len(kept) > 3000
    assert written == kept.to_jsonl()
    assert streamed_peak < kept_peak / 2


def test_streamed_run_peak_memory_does_not_grow_with_readings_sent():
    def peak(count):
        raw = copy.deepcopy(SCENARIO)
        send = raw["timeline"][3]
        send["count"], send["interval_us"] = count, 250_000
        raw["timeline"][-1]["t_us"] = 1_400_000 + count * 250_000
        scenario = validate_scenario(raw)
        with open(os.devnull, "w", encoding="utf-8") as out:
            tracemalloc.start()
            try:
                _trace, report = run_scenario(scenario, 5, out=out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert report.measurements.delivered == count
        return peak

    # An unmeasured first run, so that neither measured run pays for the growth
    # of the interpreter's free lists: on Python 3.11 a 600-reading run peaks
    # at about 53 kB when it runs first and at 48 to 51 kB after that.
    peak(600)
    # 150 and 600 simulated seconds at 4 Hz, where keeping a record per
    # reading peaked at 0.65 and 2.67 MB.
    assert peak(2400) <= 1.1 * peak(600)


def test_unwritable_trace_path_exits_4(scenario_file, tmp_path, capsys):
    rc = cli.main(
        [
            "simulate",
            "--scenario",
            str(scenario_file),
            "--seed",
            "5",
            "--trace",
            str(tmp_path / "no-such-dir" / "trace.jsonl"),
            "--metrics",
            str(tmp_path / "metrics.json"),
        ]
    )
    assert rc == 4
    diag = stderr_json(capsys)
    assert diag["error"] == "FileNotFoundError"


def test_simulate_same_seed_same_bytes(scenario_file, tmp_path):
    outs = []
    for run in range(2):
        trace_path = tmp_path / f"t{run}.jsonl"
        metrics_path = tmp_path / f"m{run}.json"
        assert (
            cli.main(
                [
                    "simulate",
                    "--scenario",
                    str(scenario_file),
                    "--seed",
                    "9",
                    "--trace",
                    str(trace_path),
                    "--metrics",
                    str(metrics_path),
                ]
            )
            == 0
        )
        outs.append((trace_path.read_bytes(), metrics_path.read_bytes()))
    assert outs[0] == outs[1]


def test_simulate_until_truncates(scenario_file, tmp_path):
    trace_path = tmp_path / "t.jsonl"
    rc = cli.main(
        [
            "simulate",
            "--scenario",
            str(scenario_file),
            "--seed",
            "5",
            "--until",
            "250000",
            "--trace",
            str(trace_path),
            "--metrics",
            str(tmp_path / "m.json"),
        ]
    )
    assert rc == 0
    last = json.loads(trace_path.read_text().splitlines()[-1])
    assert last["t_us"] <= 250_000


def test_main_calls_parse_their_flags_independently(scenario_file, tmp_path):
    """The parser is built once per process, and an ``--until`` given to one
    run does not leak into the next."""
    trace_path = tmp_path / "t.jsonl"

    def last_t_us(*until):
        argv = ["simulate", "--scenario", str(scenario_file), "--seed", "5", *until]
        argv += ["--trace", str(trace_path), "--metrics", str(tmp_path / "m.json")]
        assert cli.main(argv) == 0
        return json.loads(trace_path.read_text().splitlines()[-1])["t_us"]

    assert last_t_us("--until", "250000") <= 250_000
    assert last_t_us() > 250_000
    assert cli.build_parser() is cli.build_parser()


def test_seed_out_of_range_is_an_argparse_error(scenario_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(
            [
                "simulate",
                "--scenario",
                str(scenario_file),
                "--seed",
                str(2**64),
                "--trace",
                str(tmp_path / "t.jsonl"),
                "--metrics",
                str(tmp_path / "m.json"),
            ]
        )
    assert info.value.code == 2
    capsys.readouterr()


def test_demo_writes_outputs_in_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["demo", "pulsemeter", "--seed", "42"]) == 0
    trace = tmp_path / "pulsemeter_trace.jsonl"
    metrics = tmp_path / "pulsemeter_metrics.json"
    assert trace.exists() and metrics.exists()
    assert json.loads(metrics.read_text())["measurements"]["delivered"] == 60


def test_unknown_demo_name_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["demo", "toaster"])
    assert info.value.code == 2
    capsys.readouterr()


def test_log_level_env_is_honored(scenario_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SIM_LOG_LEVEL", "debug")
    assert cli.main(["validate", "--scenario", str(scenario_file)]) == 0
    monkeypatch.setenv("SIM_LOG_LEVEL", "not-a-level")
    assert cli.main(["validate", "--scenario", str(scenario_file)]) == 0
    capsys.readouterr()


def test_debug_logs_run_link_and_association_milestones_and_keeps_the_bytes(tmp_path, caplog):
    scenario = copy.deepcopy(SCENARIO)
    scenario["timeline"][-1:] = [
        {"t_us": 600_000, "action": "drop_link", "a": SOURCE, "b": SINK},
        {"t_us": 3_000_000, "action": "release", "source": SOURCE, "sink": SINK},
        {"t_us": 4_000_000, "action": "run_until"},
    ]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    outputs, logs = [], []
    for level in (logging.DEBUG, logging.WARNING):
        caplog.clear()
        caplog.set_level(level, logger="hdpsim")
        trace, metrics = tmp_path / f"trace-{level}.jsonl", tmp_path / f"metrics-{level}.json"
        argv = ["simulate", "--scenario", str(path), "--seed", "5"]
        assert cli.main(argv + ["--trace", str(trace), "--metrics", str(metrics)]) == 0
        outputs.append((trace.read_bytes(), metrics.read_bytes()))
        logs.append([(r.name, r.levelno, r.getMessage()) for r in caplog.records])
    assert outputs[0] == outputs[1]  # logging changes no byte
    assert logs[1] == []
    events = [json.loads(line) for line in outputs[0][0].splitlines()]
    at = {e["ev"]: e["t_us"] for e in events if e["ev"] in ("assoc", "link_lost", "link_restored")}
    pair = f"{SINK}-{SOURCE}"  # master, then slave
    debug = [(name, message) for name, levelno, message in logs[0] if levelno == logging.DEBUG]
    assert debug[:-1] == [
        ("hdpsim.runner", "run start: 2 devices, 7 actions, horizon 4000000 us"),
        ("hdpsim.hdp", f"t={at['assoc']} association 1 operating"),
        ("hdpsim.link", f"t=600000 link {pair} lost: forced"),
        ("hdpsim.link", f"t={at['link_restored']} link {pair} restored"),
        ("hdpsim.hdp", "t=3000000 association 1 released"),
    ]
    assert debug[-1][0] == "hdpsim.runner"
    assert re.fullmatch(rf"run end: \d+ event ids issued, {len(events)} trace events", debug[-1][1])
    assert at["link_lost"] == 600_000 < at["link_restored"] < 3_000_000

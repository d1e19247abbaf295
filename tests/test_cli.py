from __future__ import annotations

import hashlib
import json
import logging

import pytest

from hdpsim import cli
from hdpsim.engine import Trace

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
    calls = []
    to_jsonl = Trace.to_jsonl
    monkeypatch.setattr(Trace, "to_jsonl", lambda trace: calls.append(1) or to_jsonl(trace))
    caplog.set_level(level, logger="hdpsim")
    trace_path = tmp_path / "trace.jsonl"
    argv = ["simulate", "--scenario", str(scenario_file), "--seed", "5"]
    argv += ["--trace", str(trace_path), "--metrics", str(tmp_path / "metrics.json")]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trace sha256")]
    assert logged == ([f"trace sha256 {digest}"] if level == logging.INFO else [])


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

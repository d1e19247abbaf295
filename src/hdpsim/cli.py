"""Command-line front end: simulate, validate, demo.

Failures print one JSON line to stderr and exit with a stable code:
2 for scenario problems, 3 for a mid-run invariant breach, 4 for I/O.
``simulate`` and ``demo`` write each trace line as its event is emitted and
fold the metrics at the same moment, so a run keeps no trace in memory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.resources
import json
import logging
import os
import sys
from typing import Optional

from .metrics import emit_metrics
from .runner import InvariantViolation, run_scenario
from .scenario import ParseError, Scenario, ValidationError, load_scenario

log = logging.getLogger("hdpsim")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _configure_logging() -> None:
    level = os.environ.get("SIM_LOG_LEVEL", "warn").lower()
    logging.basicConfig(
        level=_LOG_LEVELS.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    if level not in _LOG_LEVELS:
        log.warning("SIM_LOG_LEVEL=%r not recognized; using warn", level)


def _fail(exc: Exception, code: int) -> int:
    print(
        json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
        file=sys.stderr,
    )
    return code


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _cmd_simulate(args: argparse.Namespace, scenario: Scenario) -> int:
    return _simulate(scenario, args.seed, args.until, args.trace, args.metrics)


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _simulate(
    scenario: Scenario,
    seed: int,
    until_us: Optional[int],
    trace_path: str,
    metrics_path: str,
) -> int:
    """Stream the trace to ``trace_path`` as the run goes, then write metrics.

    An invariant breach leaves the trace written up to it and no metrics.
    """
    log.info("running scenario %s with seed %d", scenario.name, seed)
    try:
        with open(trace_path, "w", encoding="utf-8", newline="\n") as out:
            _trace, report = run_scenario(scenario, seed, until_us, out)
        emit_metrics(report, metrics_path)
        if log.isEnabledFor(logging.INFO):
            log.info("trace sha256 %s", _file_sha256(trace_path))
    except InvariantViolation as exc:
        return _fail(exc, EXIT_INVARIANT)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace, scenario: Scenario) -> int:
    print(f"ok: {scenario.name} ({len(scenario.devices)} devices, {len(scenario.timeline)} actions)")
    return EXIT_OK


def demo_scenario(name: str = "pulsemeter") -> Scenario:
    resource = importlib.resources.files("hdpsim") / "scenarios" / f"{name}.json"
    with importlib.resources.as_file(resource) as path:
        return load_scenario(str(path))


def _cmd_demo(args: argparse.Namespace, scenario: Scenario) -> int:
    return _simulate(
        scenario,
        args.seed,
        None,
        f"{args.name}_trace.jsonl",
        f"{args.name}_metrics.json",
    )


def _load(args: argparse.Namespace) -> Scenario:
    """The scenario every command runs on: a packaged demo or ``--scenario``."""
    if args.command == "demo":
        return demo_scenario(args.name)
    return load_scenario(args.scenario)


@functools.cache  # once per process; each parse_args makes a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdpsim",
        description="Deterministic simulator for short-range medical device networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write trace/metrics")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--seed", required=True, type=_seed, help="unsigned 64-bit seed")
    sim.add_argument("--until", type=int, default=None, help="stop time in microseconds")
    sim.add_argument("--trace", required=True, help="output trace path (JSONL)")
    sim.add_argument("--metrics", required=True, help="output metrics path (JSON)")
    sim.set_defaults(func=_cmd_simulate)

    val = sub.add_parser("validate", help="check a scenario file without running it")
    val.add_argument("--scenario", required=True, help="scenario JSON file")
    val.set_defaults(func=_cmd_validate)

    demo = sub.add_parser("demo", help="run a packaged demo scenario")
    demo.add_argument("name", choices=["pulsemeter"], help="demo to run")
    demo.add_argument("--seed", type=_seed, default=42, help="unsigned 64-bit seed")
    demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        scenario = _load(args)
    except (ParseError, ValidationError) as exc:
        return _fail(exc, EXIT_VALIDATION)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    return args.func(args, scenario)


if __name__ == "__main__":
    sys.exit(main())

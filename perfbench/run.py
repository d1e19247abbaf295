"""hdpsim benchmark: the ward, soak and clinic workloads, end to end and per layer.

    python3 perfbench/run.py --workload {ward,soak,clinic,all} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout; hdpsim is imported from ``src/``. Every
repetition runs in a fresh process (``child.py``) that hands the generated
scenario file(s) to ``hdpsim.cli.main(["simulate", ...])``. Sessions are a
closed loop: each starts when the previous one has finished.

With ``--trace 0`` the end-to-end metrics are measured with no tracing;
their times are scaled by the host speed measured during each repetition
(``child.SpeedProbe``, ``REFERENCE_TICK_S``). With
``--trace 1`` the same untraced repetitions run first, then repetitions with
``tracer.Tracer`` installed give the per-layer metrics, and a count-only run
of ward 4x7 and 16x7 gives the growth exponents. METRICS.md maps each metric
to the end-to-end metric and workload it should move.

Every repetition passes an untimed gate: exit code 0, the accounting
identity, the expected counts, no error events, identical digests for every
repetition of one seed, traced or not, and the digests pinned in
``pins.json`` for the default seed, which every invocation also runs once.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEFAULT_SEED = 1
RUN_LIMIT_S = 170  # a run must end within 180 s
# Set-ups per repetition: ward and soak set up in milliseconds, so one
# sample says little; a clinic set-up covers the whole batch.
SETUP_REPEATS = {"ward": 16, "soak": 16, "clinic": 8}
GROWTH_SIZES = ((4, 7), (16, 7))
# Host times are scaled to the host speed at which one probe tick
# (child.SpeedProbe) takes this long; on a 2 vCPU Xeon at 2.0 GHz a tick
# takes 60 to 110 us as the shared host's speed drifts.
REFERENCE_TICK_S = 100e-6
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "session_ms_p50": "ms",
    "session_ms_p90": "ms",
}


def unit_of(name: str, value) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "count" if isinstance(value, int) else "ratio"


def sessions_for(workload: str, seed: int) -> list[tuple[dict, int]]:
    """(scenario, simulator seed) per session, generated from the workload seed."""
    if workload == "ward":
        return [(workloads.ward(), workloads.sim_seed(seed))]
    if workload == "soak":
        return [(workloads.soak(), workloads.sim_seed(seed))]
    return workloads.clinic(seed)


def expected_sent(scenario: dict) -> int:
    horizon = scenario["timeline"][-1]["t_us"]
    return sum(
        a.get("count", 1)
        for a in scenario["timeline"]
        if a["action"] == "send_measurement" and a["t_us"] <= horizon
    )


def combined(digests: list[str]) -> str:
    return digests[0] if len(digests) == 1 else hashlib.sha256("".join(digests).encode()).hexdigest()


class Run:
    """One benchmark invocation: its files, its repetitions and its gate."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.dir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, tuple[str, str]] = {}
        self.reps = 0

    def write_sessions(self, seed: int) -> list[dict]:
        """Scenario files for one seed; returns the session records."""
        records = []
        for i, (scenario, sim_seed) in enumerate(sessions_for(self.workload, seed)):
            path = os.path.join(self.dir, f"s{seed}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh)
            records.append({"path": path, "sim_seed": sim_seed, "expect_sent": expected_sent(scenario)})
        return records

    def child(self, mode: str, sessions: list[list], **extra) -> dict:
        self.reps += 1
        spec = dict(extra, mode=mode, sessions=sessions)
        spec_path = os.path.join(self.dir, f"spec-{self.reps}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run exceeded its time limit")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{mode} repetition failed: {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def repetition(self, seed: int, records: list[dict], mode: str, **extra) -> dict:
        """Run all sessions of one seed once and gate every session."""
        sessions = [
            [r["path"], r["sim_seed"], os.path.join(self.dir, f"t{i}.jsonl"), os.path.join(self.dir, f"m{i}.json")]
            for i, r in enumerate(records)
        ]
        result = self.child(mode, sessions, **extra)
        for i, (record, out, code) in enumerate(zip(records, result["outputs"], result["exit_codes"])):
            self.attempted += 1
            problems = self.gate(record, out, code)
            if problems:
                self.failed += 1
                self.problems += [f"seed {seed} session {i}: {p}" for p in problems]
        digest = (
            combined([o["trace_sha256"] for o in result["outputs"]]),
            combined([o["metrics_sha256"] for o in result["outputs"]]),
        )
        first = self.digests.setdefault(seed, digest)
        if digest != first:
            self.problems.append(f"seed {seed}: {mode} repetition gave other digests than the first")
        return result

    def gate(self, record: dict, out: dict, code: int) -> list[str]:
        m = out["measurements"]
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if m["delivered"] + m["evicted"] + m["abandoned"] + m["in_flight"] != m["sent"]:
            problems.append(f"accounting identity broken: {m}")
        if m["in_flight"] != 0:
            problems.append(f"{m['in_flight']} readings in flight at the horizon")
        if m["sent"] != record["expect_sent"]:
            problems.append(f"sent {m['sent']}, expected {record['expect_sent']}")
        if out["errors"]:
            problems.append(f"error events {out['errors']}")
        if self.workload == "ward" and m["delivered"] != m["sent"]:
            problems.append(f"delivered {m['delivered']} of {m['sent']}")
        if self.workload == "soak" and not m["evicted"]:
            problems.append("the source buffer never reached its cap")
        return problems

    def check_pins(self) -> None:
        with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
            pin = json.load(fh)[self.workload]
        got = self.digests.get(pin["seed"], ("none", "none"))
        want = (pin["trace_sha256"], pin["metrics_sha256"])
        print(f"{self.workload} digests at seed {pin['seed']}: trace {got[0]} metrics {got[1]}")
        if got != want:
            self.problems.append(f"digests at seed {pin['seed']} differ from pins.json")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def repeat(budget_s: float, minimum: int, fn) -> list:
    """Call fn at least ``minimum`` times, then while another call still fits."""
    results = []
    t0 = last = time.monotonic()
    while True:
        results.append(fn())
        now = time.monotonic()
        if len(results) >= minimum and now - t0 + (now - last) > budget_s:
            return results
        last = now


def end_to_end(plain: list[dict]) -> dict:
    """Medians over the repetitions, each scaled by its host speed."""
    run_scale = [REFERENCE_TICK_S / r["run_tick_s"] for r in plain]
    walls = [r["wall_s"] * k for r, k in zip(plain, run_scale)]
    events = sum(o["trace_events"] for o in plain[0]["outputs"])
    sessions_ms = [
        t * 1000 * REFERENCE_TICK_S / (tick or r["run_tick_s"])
        for r in plain
        for t, tick in zip(r["session_s"], r["session_tick_s"])
    ]
    setups = [
        t * REFERENCE_TICK_S / (tick or r["run_tick_s"])
        for r in plain
        for t, tick in zip(r["setup_s"], r["setup_tick_s"])
    ]
    host_walls = [r["wall_s"] for r in plain]
    print(f"samples: {len(walls)} repetitions, {len(sessions_ms)} sessions, {len(setups)} set-ups")
    print(f"host wall_s {statistics.median(host_walls):.6g} s unscaled, run speed scale "
          f"{min(run_scale):.3f} to {max(run_scale):.3f}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(events / w for w in walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "session_ms_p50": statistics.median(sessions_ms),
        "session_ms_p90": statistics.quantiles(sessions_ms, n=10, method="inclusive")[8],
    }


def per_layer(run: Run, plain: list[dict], traced: list[dict]) -> dict:
    """Counts must repeat exactly; self times are scaled like the end-to-end
    times, after taking out the probe's share of the traced wall time."""
    layers = [r["layers"] for r in traced]
    scale = [
        REFERENCE_TICK_S / r["run_tick_s"] * r["wall_s"] / (r["wall_s"] + r["run_probe_s"])
        for r in traced
    ]
    out = {}
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if name.endswith("_s"):
            out[name] = statistics.median(v * k for v, k in zip(values, scale))
        else:
            if any(v != values[0] for v in values):
                run.problems.append(f"count {name} differs between traced repetitions: {values}")
            out[name] = values[0]
    out["trace_overhead"] = statistics.median(
        r["wall_s"] * REFERENCE_TICK_S / r["run_tick_s"] for r in traced
    ) / statistics.median(r["wall_s"] * REFERENCE_TICK_S / r["run_tick_s"] for r in plain)
    return out


def growth_exponents(run: Run) -> dict:
    """Count-based growth from ward 4x7 to 16x7: log(count ratio) / log(4)."""
    sessions = []
    for phones, sensors in GROWTH_SIZES:
        path = os.path.join(run.dir, f"ward{phones}x{sensors}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(workloads.ward(phones, sensors), fh)
        sessions.append([path, workloads.sim_seed(DEFAULT_SEED), path + ".jsonl", path + ".metrics.json"])
    small, large = run.child("growth", sessions)["growth"]
    for (phones, sensors), c in zip(GROWTH_SIZES, (small, large)):
        print(f"ward {phones}x{sensors}: exit {c['exit_code']}, {c.get('range_checks', 0)} range checks, "
              f"{c.get('sweep_calls', 0)} sweep calls")
        if c["exit_code"] != 0 or not c.get("range_checks") or not c.get("sweep_calls"):
            raise RuntimeError(f"ward {phones}x{sensors} growth run failed")
    base = math.log(GROWTH_SIZES[1][0] / GROWTH_SIZES[0][0])
    return {
        "engine.range_checks_exp": math.log(large["range_checks"] / small["range_checks"]) / base,
        "discovery.sweep_calls_exp": math.log(large["sweep_calls"] / small["sweep_calls"]) / base,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    try:
        records = run.write_sessions(seed)
        setup = {"setup_repeats": 0 if trace else SETUP_REPEATS[workload]}
        if seed != DEFAULT_SEED:
            run.repetition(DEFAULT_SEED, run.write_sessions(DEFAULT_SEED), "plain", setup_repeats=0)
        # An end-to-end run needs two plain repetitions for a p90 and a
        # determinism check; a traced run needs one, as the base of
        # trace_overhead, and two traced ones to compare their counts.
        budget = seconds / 2 if trace else seconds
        plain = repeat(budget, 1 if trace else 2, lambda: run.repetition(seed, records, "plain", **setup))
        if trace:
            spans = os.path.join(OUT, f"spans-{workload}")
            traced = repeat(budget, 2, lambda: run.repetition(seed, records, "traced", spans_prefix=spans))
            metrics = per_layer(run, plain, traced) | growth_exponents(run)
        else:
            metrics = end_to_end(plain)
        run.check_pins()
    except Exception:  # a broken program is a failed run, not a crash
        run.problems.append(traceback.format_exc(limit=3))
        metrics = {}
    finally:
        run.close()
    for problem in run.problems[:20]:
        print(f"GATE {workload}: {problem}")
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{workload} fail_ratio {fail_ratio:.4f} ({run.failed} of {run.attempted} runs)")
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit_of(name, value)}")
    return {
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": v, "unit": unit_of(name, v)} for name, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ward", "soak", "clinic", "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hdpsim", "__init__.py")):
        print(f"hdpsim sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = ["ward", "soak", "clinic"] if args.workload == "all" else [args.workload]
    results = {name: benchmark(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

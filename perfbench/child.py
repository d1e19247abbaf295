"""One repetition of a workload in a fresh process.

Usage: ``python3 perfbench/child.py SPEC.json``. The spec names the
scenario files with their simulator seeds and output paths, and the mode:

- ``plain``: run every session through ``hdpsim.cli.main(["simulate", ...])``
  back to back, and repeat the set-up (``load_scenario`` plus
  ``ScenarioRun(...)``) ``setup_repeats`` times, half before and half after;
- ``traced``: the same run with ``tracer.Tracer`` installed, reporting the
  per-layer metrics and writing the spans to ``spans_prefix``;
- ``growth``: count ``Engine.in_range`` and ``sweep_slots`` calls only.

``SpeedProbe`` runs throughout, so that every time can be scaled by the
host speed it was measured at. Prints one JSON object on its last stdout
line. Timing covers only the calls into hdpsim; digests and counters are
read from the written files afterwards.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import heapq
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

# Trace events the per-layer metrics count from the written trace.
COUNTED_EVENTS = ("inquiry_resp", "link_lost", "link_restored")


def read_outputs(trace_path: str, metrics_path: str) -> dict:
    with open(trace_path, "rb") as fh:
        trace = fh.read()
    with open(metrics_path, "rb") as fh:
        metrics_raw = fh.read()
    metrics = json.loads(metrics_raw)
    return {
        "trace_sha256": hashlib.sha256(trace).hexdigest(),
        "metrics_sha256": hashlib.sha256(metrics_raw).hexdigest(),
        "trace_events": trace.count(b"\n"),
        "trace_bytes": len(trace),
        "events_by_name": {e: trace.count(b'"ev":"%s"' % e.encode()) for e in COUNTED_EVENTS},
        "measurements": metrics["measurements"],
        "errors": metrics["errors"],
    }


def probe_kernel() -> int:
    """Fixed stdlib work with a simulator's mix: heap, dict, str, json, sha256."""
    heap, table, out = [], {}, 0
    for i in range(60):
        key = str(i)
        heapq.heappush(heap, (i * 7919 % 101, i, key))
        table[key] = i * 7 % 13
        if len(heap) > 16:
            out += table.pop(heapq.heappop(heap)[2])
        if i % 16 == 0:
            text = json.dumps({"t_us": i, "ev": "x", "detail": {"a": i}}, sort_keys=True)
            out += len(hashlib.sha256(text.encode()).digest())
    return out


class SpeedProbe:
    """Measures the speed the host runs at while a repetition runs.

    On a shared host the CPU speed drifts by up to 2x within seconds, so
    host seconds alone do not repeat. Every 10 ms an interval timer runs
    ``probe_kernel`` twice in a signal handler and records how long the
    second, cache-warm call took. ``busy(mark)`` is the time the probe took
    since ``mark = len(probe.ticks)``, which callers subtract from what they
    timed; ``speed(mark, end)`` is the mean tick over that stretch. The
    probe touches no state of hdpsim, so the outputs stay identical.
    """

    INTERVAL_S = 0.01
    WINDOW = 25  # ticks around a short session that give its speed

    def __init__(self):
        self.ticks: list[float] = []
        self.spent: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        probe_kernel()
        t2 = time.perf_counter()
        self.ticks.append(t2 - t1)
        self.spent.append(t2 - t0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.ticks)

    def busy(self, mark: int) -> float:
        return sum(self.spent[mark:])

    def speed(self, mark: int, end: int, within: tuple[int, int] | None = None) -> float | None:
        """Mean tick over [mark, end), widened by up to ``WINDOW`` ticks on
        each side but kept inside ``within``."""
        if within is not None:
            mark = max(within[0], mark - self.WINDOW)
            end = min(within[1], end + self.WINDOW)
        return statistics.fmean(self.ticks[mark:end]) if end > mark else None


def simulate(cli, sessions: list, tracer=None, probe=None):
    """Run the sessions back to back.

    Returns the wall time, each session's time, exit codes and the probe
    marks each session started and ended at. Times exclude what ``probe``
    spent in its signal handler meanwhile.
    """
    probe = probe or SpeedProbe()
    times, codes, marks = [], [], []
    start = probe.mark()
    t0 = time.perf_counter()
    for run_id, (scenario, seed, trace, metrics) in enumerate(sessions):
        if tracer is not None:
            tracer.run_id = run_id
        mark = probe.mark()
        ts = time.perf_counter()
        codes.append(
            cli.main(
                ["simulate", "--scenario", scenario, "--seed", str(seed),
                 "--trace", trace, "--metrics", metrics]
            )
        )
        times.append(time.perf_counter() - ts - probe.busy(mark))
        marks.append((mark, probe.mark()))
    return time.perf_counter() - t0 - probe.busy(start), times, codes, marks


def setup_times(sessions: list, repeats: int, probe: SpeedProbe) -> list[tuple[float, int, int]]:
    """(set-up time, first and last probe mark) of each repetition."""
    from hdpsim.runner import ScenarioRun
    from hdpsim.scenario import load_scenario

    samples = []
    for _ in range(repeats):
        gc.collect()
        mark = probe.mark()
        t0 = time.perf_counter()
        for scenario, seed, _trace, _metrics in sessions:
            ScenarioRun(load_scenario(scenario), seed)
        samples.append((time.perf_counter() - t0 - probe.busy(mark), mark, probe.mark()))
    return samples


def growth_counts(sessions: list) -> list[dict]:
    from hdpsim import cli, discovery, engine, link

    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    engine.Engine.in_range = counted("range_checks", engine.Engine.in_range)
    sweep = counted("sweep_calls", discovery.sweep_slots)
    discovery.sweep_slots = sweep
    link.sweep_slots = sweep
    out = []
    for session in sessions:
        counts.clear()
        codes = simulate(cli, [session])[2]
        out.append(dict(counts, exit_code=codes[0]))
    return out


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sessions = spec["sessions"]
    mode = spec["mode"]
    if mode == "growth":
        print(json.dumps({"growth": growth_counts(sessions)}))
        return

    from hdpsim import cli

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Set-up samples before and after the run spread them over the run's
    # time, so that a slow spell of the host does not set all of them.
    repeats = spec.get("setup_repeats", 0)
    probe = SpeedProbe()
    with probe:
        setups = setup_times(sessions, repeats // 2, probe)
        gc.collect()
        run_start = probe.mark()
        wall, times, codes, marks = simulate(cli, sessions, tracer, probe)
        run_end = probe.mark()
        setups += setup_times(sessions, (repeats + 1) // 2, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outputs = [read_outputs(trace, metrics) for _s, _seed, trace, metrics in sessions]
    everything = (0, probe.mark())
    result = {
        "wall_s": wall,
        "run_tick_s": probe.speed(run_start, run_end),
        "run_probe_s": probe.busy(run_start) - probe.busy(run_end),
        "session_tick_s": [probe.speed(a, b, (run_start, run_end)) for a, b in marks],
        "setup_s": [t for t, _a, _b in setups],
        "setup_tick_s": [probe.speed(a, b, everything) for _t, a, b in setups],
        "session_s": times,
        "exit_codes": codes,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
    }
    if tracer is not None:
        from tracer import layer_metrics

        total = {
            "trace_events": sum(o["trace_events"] for o in outputs),
            "trace_bytes": sum(o["trace_bytes"] for o in outputs),
            "events_by_name": {
                e: sum(o["events_by_name"][e] for o in outputs) for e in COUNTED_EVENTS
            },
            "measurements": {
                k: sum(o["measurements"][k] for o in outputs)
                for k in ("buffered", "evicted", "delivered")
            },
        }
        result["layers"] = layer_metrics(tracer.totals(), tracer.counts, tracer.queue_peak, total)
        tracer.write(spec["spans_prefix"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])

"""Span tracer that wraps hdpsim's public entry points from outside ``src/``.

``Tracer.install()`` replaces functions and methods in the already imported
``hdpsim`` modules with wrappers that record one span per call: name,
start, end, parent span and run id, kept in compact arrays in memory. A
span's self time is its duration minus the durations of the spans directly
inside it, so self times of all layers add up to the traced wall time.

Callbacks handed to ``Engine.schedule``, frame handlers, listen providers,
protocol handlers and data-channel receivers are wrapped too and named after
the ``__module__`` of the function that registered them, so each fired event
is attributed to the layer that scheduled it.

The wrappers only observe; every call reaches the original with the same
arguments, so traced and untraced runs write the same bytes. The one
difference is that listen providers are drained into a tuple instead of
being consumed lazily, which they allow because they have no side effects.
"""

from __future__ import annotations

import collections
import json
import time
from array import array

PROTO_NAMES = {1: "link", 2: "mcap", 3: "hdp"}


def layer_of(fn) -> str:
    module = getattr(fn, "__module__", None) or ""
    return module.rpartition(".")[2] if module.startswith("hdpsim.") else "other"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.run = array("H")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.run_id = 0
        self.counts: collections.Counter = collections.Counter()
        self.queue_peak = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, run, start, end = self.name_id, self.parent, self.run, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return span

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from hdpsim import cli, discovery, engine, hdp, link, mcap, runner
        from hdpsim.engine import FrameKind

        wrap, counts = self.wrap, self.counts
        Engine = engine.Engine

        orig_schedule = Engine.schedule

        def schedule(eng, at, fn):
            event_id = orig_schedule(eng, at, wrap(layer_of(fn) + ".callback", fn))
            if len(eng._heap) > self.queue_peak:
                self.queue_peak = len(eng._heap)
            return event_id

        orig_cancel = Engine.cancel

        def cancel(eng, event_id):
            if event_id in eng._entries:
                counts["engine.events_cancelled"] += 1
            orig_cancel(eng, event_id)

        orig_broadcast = Engine.broadcast

        def broadcast(eng, frame, sender):
            counts["engine.broadcasts." + frame.kind.value] += 1
            if frame.kind is FrameKind.LINK_DATA and frame.payload:
                counts["link.tx_frames." + PROTO_NAMES.get(frame.payload[0], "other")] += 1
            deliveries = orig_broadcast(eng, frame, sender)
            counts["engine.deliveries"] += len(deliveries)
            return deliveries

        orig_add_handler = Engine.add_frame_handler

        def add_frame_handler(eng, kind, fn):
            orig_add_handler(eng, kind, wrap(f"{layer_of(fn)}.rx.{kind.value}", fn))

        orig_add_listen = Engine.add_listen_provider

        def add_listen_provider(eng, fn):
            orig_add_listen(eng, wrap(layer_of(fn) + ".listen", lambda d, t: tuple(fn(d, t))))

        Engine.schedule = wrap("engine.schedule", schedule)
        Engine.cancel = wrap("engine.cancel", cancel)
        Engine.run_until = wrap("engine.run_until", Engine.run_until)
        Engine.broadcast = wrap("engine.broadcast", broadcast)
        Engine.in_range = wrap("engine.in_range", Engine.in_range)
        Engine.add_frame_handler = add_frame_handler
        Engine.add_listen_provider = add_listen_provider
        engine.Trace.to_jsonl = wrap("engine.trace_serialise", engine.Trace.to_jsonl)
        engine.Trace.sha256 = wrap("engine.trace_digest", engine.Trace.sha256)

        sweep = wrap("discovery.sweep", discovery.sweep_slots)
        discovery.sweep_slots = sweep
        link.sweep_slots = sweep

        LinkManager = link.LinkManager
        orig_register = LinkManager.register_protocol

        def register_protocol(links, proto, fn):
            orig_register(links, proto, wrap(layer_of(fn) + ".rx_pdu", fn))

        LinkManager.page = wrap("link.page", LinkManager.page)
        LinkManager.send_on_link = wrap("link.send", LinkManager.send_on_link)
        LinkManager.register_protocol = register_protocol

        mcap.apply_cipher = wrap("security.cipher", mcap.apply_cipher)
        link.authenticate = wrap("security.auth", link.authenticate)

        orig_on_receive = mcap.DataChannel.on_receive

        def on_receive(channel, fn):
            orig_on_receive(channel, wrap(layer_of(fn) + ".rx_data", fn))

        mcap.McapManager.send = wrap("mcap.send", mcap.McapManager.send)
        mcap.DataChannel.on_receive = on_receive
        hdp.HdpManager.send_measurement = wrap("hdp.submit", hdp.HdpManager.send_measurement)

        cli.load_scenario = wrap("scenario.load", cli.load_scenario)
        runner.ScenarioRun.__init__ = wrap("runner.build", runner.ScenarioRun.__init__)
        runner.compute_metrics = wrap("metrics.fold", runner.compute_metrics)
        cli.emit_metrics = wrap("metrics.write", cli.emit_metrics)
        cli.main = wrap("cli.main", cli.main)

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int]]:
        """span name -> (calls, self time in ns)."""
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_ns[nid] += end[i] - start[i] - child[i]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def write(self, prefix: str) -> None:
        """Spans as ``<prefix>.json`` (names, layout) plus ``<prefix>.bin``."""
        fields = ("name_id", "parent", "run", "start", "end")
        with open(prefix + ".bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        meta = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[f, getattr(self, f).typecode, getattr(self, f).itemsize] for f in fields],
            "clock": "time.perf_counter_ns",
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)


def layer_metrics(totals: dict[str, tuple[int, int]], counts, queue_peak: int, outputs: dict) -> dict:
    """Per-layer metrics of one repetition from span totals and counters.

    ``outputs`` holds what the benchmark read from the written files: trace
    events and bytes, events by name, and the measurement counters.
    """

    def calls(*names):
        return sum(totals.get(n, (0, 0))[0] for n in names)

    def secs(*names):
        return sum(totals.get(n, (0, 0))[1] for n in names) / 1e9

    def prefixed(prefix):
        return [n for n in totals if n.startswith(prefix)]

    def ratio(a, b):
        return a / b if b else 0.0

    ev = outputs["events_by_name"]
    m = outputs["measurements"]
    callbacks = [n for n in totals if n.endswith(".callback")]
    broadcasts = calls("engine.broadcast")
    range_checks = calls("engine.in_range")
    out = {
        "engine.events_scheduled": calls("engine.schedule"),
        "engine.events_fired": calls(*callbacks),
        "engine.events_cancelled": counts["engine.events_cancelled"],
        "engine.queue_peak": queue_peak,
        "engine.dispatch_s": secs("engine.run_until", "engine.schedule", "engine.cancel", "engine.callback"),
        "engine.broadcasts": broadcasts,
    }
    for kind in ("inquiry", "inquiry_response", "page", "link_data"):
        out["engine.broadcasts." + kind] = counts["engine.broadcasts." + kind]
    out.update(
        {
            "engine.broadcast_s": secs("engine.broadcast", "engine.in_range"),
            "engine.range_checks": range_checks,
            "engine.range_checks_per_broadcast": ratio(range_checks, broadcasts),
            "engine.deliveries": counts["engine.deliveries"],
            "engine.delivery_ratio": ratio(counts["engine.deliveries"], range_checks),
            "engine.trace_events": outputs["trace_events"],
            "engine.trace_bytes": outputs["trace_bytes"],
            "engine.trace_serialise_calls": calls("engine.trace_serialise"),
            "engine.trace_serialise_s": secs("engine.trace_serialise"),
            "engine.trace_digest_s": secs("engine.trace_digest"),
            "discovery.sweep_calls": calls("discovery.sweep"),
            "discovery.sweep_s": secs("discovery.sweep"),
            "discovery.timer_events": calls("discovery.callback"),
            "discovery.timer_s": secs("discovery.callback"),
            "discovery.rx_frames": calls(*prefixed("discovery.rx.")),
            "discovery.rx_s": secs(*prefixed("discovery.rx.")),
            "discovery.listen_calls": calls("discovery.listen"),
            "discovery.listen_s": secs("discovery.listen"),
            "discovery.useful_ratio": ratio(
                ev.get("inquiry_resp", 0), calls("discovery.rx.inquiry_response")
            ),
            "link.pages": calls("link.page"),
            "link.tx_s": secs("link.page", "link.send"),
            "link.rx_frames": calls(*prefixed("link.rx.")),
            "link.rx_s": secs(*prefixed("link.rx.")),
            "link.timer_events": calls("link.callback"),
            "link.timer_s": secs("link.callback"),
            "link.listen_calls": calls("link.listen"),
            "link.listen_s": secs("link.listen"),
        }
    )
    for proto in ("link", "mcap", "hdp"):
        out["link.tx_frames." + proto] = counts["link.tx_frames." + proto]
    out.update(
        {
            "link.lost": ev.get("link_lost", 0),
            "link.restored": ev.get("link_restored", 0),
            "security.cipher_calls": calls("security.cipher"),
            "security.cipher_s": secs("security.cipher"),
            "security.auth_calls": calls("security.auth"),
            "security.auth_s": secs("security.auth"),
            "mcap.sends": calls("mcap.send"),
            "mcap.send_s": secs("mcap.send"),
            "mcap.rx_pdus": calls("mcap.rx_pdu", "mcap.rx_data"),
            "mcap.rx_s": secs("mcap.rx_pdu", "mcap.rx_data"),
            "mcap.timer_events": calls("mcap.callback"),
            "mcap.timer_s": secs("mcap.callback"),
            "mcap.tx_per_delivery": ratio(counts["link.tx_frames.mcap"], m["delivered"]),
            "hdp.submits": calls("hdp.submit"),
            "hdp.submit_s": secs("hdp.submit"),
            "hdp.rx_pdus": calls("hdp.rx_pdu", "hdp.rx_data"),
            "hdp.rx_s": secs("hdp.rx_pdu", "hdp.rx_data"),
            "hdp.timer_events": calls("hdp.callback"),
            "hdp.timer_s": secs("hdp.callback"),
            "hdp.buffered": m["buffered"],
            "hdp.evicted": m["evicted"],
            "hdp.delivered": m["delivered"],
            "scenario.validate_s": secs("scenario.load"),
            "runner.build_s": secs("runner.build"),
            "runner.actions": calls("runner.callback"),
            "runner.action_s": secs("runner.callback"),
            "metrics.fold_s": secs("metrics.fold"),
            "metrics.write_s": secs("metrics.write"),
            "cli.self_s": secs("cli.main"),
        }
    )
    return out

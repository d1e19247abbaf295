"""Run metrics, computed entirely from the event trace.

Deriving every counter from the trace (rather than from live objects) keeps
the report a pure function of the run's observable record: identical traces
always produce identical metrics bytes. ``MetricsFold`` takes the events one
at a time as they are emitted, so a run need not keep its trace to report on
it; ``compute_metrics`` folds a kept trace the same way. A per-reading event
of ``hdpsim.engine.TYPED_EVENTS`` is fed as its values in field order: a trace
builds its dict only to keep it, and ``compute_metrics`` feeds it as values.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

from .engine import TYPED, TraceEvent


@dataclass
class MeasurementCounters:
    sent: int = 0
    acked: int = 0
    buffered: int = 0
    evicted: int = 0
    delivered: int = 0
    abandoned: int = 0

    @property
    def in_flight(self) -> int:
        return self.sent - self.delivered - self.evicted - self.abandoned


@dataclass
class MetricsReport:
    """Aggregated observations of one simulation run."""

    discovery_latency_us: list[Optional[int]] = field(default_factory=list)
    reconnect_handshake_msgs: list[int] = field(default_factory=list)
    create_handshake_msgs: list[int] = field(default_factory=list)
    measurements: MeasurementCounters = field(default_factory=MeasurementCounters)
    sync: Optional[dict[str, int]] = None
    granted_bps: dict[str, dict[str, int]] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["measurements"]["in_flight"] = self.measurements.in_flight
        return out


_CREATE_OPS = {"create_req", "create_accept", "create_config", "create_confirm"}
_RECONNECT_OPS = {"reconnect_req", "reconnect_accept"}


class MetricsFold:
    """Online fold of trace events into a MetricsReport.

    ``feed`` takes each event whose name is in ``EVENTS``, the names it
    branches on, as it is emitted, and ignores any other; ``report`` returns
    the report of everything fed so far. An event's detail is its dict, a
    typed event's its values, which ``feed`` unpacks by position in
    ``TYPED_EVENTS`` field order. The fold keeps per-inquiry and
    per-channel state, never the events themselves. Of the readings it keeps
    only those in flight, by association: the seqs in the source buffer
    (``buffered`` until ``evicted`` or flushed by ``measurement_tx``) and
    those on the channel (``measurement_tx`` until ``measurement_rx``), all
    dropped on ``released``. A flush is not a new reading and only a reading
    on the channel can arrive, so each ``(assoc_id, seq)`` counts once.
    """

    EVENTS = frozenset({
        "measurement_tx", "measurement_rx", "mdl_ack", "buffered", "evicted", "released",
        "inquiry_start", "inquiry_resp", "inquiry_done", "mcap_tx", "mdl_create",
        "mdl_reconnect", "assoc", "clock_sync", "admit", "error",
    })

    def __init__(self):
        self._report = MetricsReport()
        self._inquiries: list[tuple[str, int, Optional[int]]] = []  # dev, started, latency
        self._open_inquiry: dict[str, int] = {}  # dev -> index into _inquiries
        self._create_counts: dict[int, int] = {}
        self._reconnect_counts: dict[int, int] = {}
        self._in_buffer: defaultdict[int, set[int]] = defaultdict(set)  # by assoc_id
        self._on_channel: defaultdict[int, set[int]] = defaultdict(set)
        self._assoc_mdls: set[int] = set()

    def feed(self, t_us: int, ev: str, dev: str, detail: dict | tuple) -> None:
        """Fold one event, given as its fields."""
        report = self._report
        if ev == "measurement_tx":
            assoc_id, seq = detail
            in_buffer = self._in_buffer[assoc_id]
            if seq in in_buffer:
                in_buffer.remove(seq)
            else:
                report.measurements.sent += 1
            self._on_channel[assoc_id].add(seq)
        elif ev == "measurement_rx":
            assoc_id, seq, _sink_timestamp_us = detail
            on_channel = self._on_channel[assoc_id]
            if seq in on_channel:
                on_channel.remove(seq)
                report.measurements.delivered += 1
        elif ev == "mdl_ack":
            mdl_id, _seq = detail
            if mdl_id in self._assoc_mdls:
                report.measurements.acked += 1
        elif ev == "buffered":
            assoc_id, _depth, seq = detail
            in_buffer = self._in_buffer[assoc_id]
            if seq not in in_buffer:
                in_buffer.add(seq)
                report.measurements.sent += 1
                report.measurements.buffered += 1
        elif ev == "evicted":
            assoc_id, seq = detail
            report.measurements.evicted += 1
            self._in_buffer[assoc_id].discard(seq)
        elif ev == "released":
            report.measurements.abandoned += detail.get("abandoned", 0)
            self._in_buffer.pop(detail["assoc_id"], None)
            self._on_channel.pop(detail["assoc_id"], None)
        elif ev == "inquiry_start":
            self._open_inquiry[dev] = len(self._inquiries)
            self._inquiries.append((dev, t_us, None))
        elif ev == "inquiry_resp":
            idx = self._open_inquiry.get(dev)
            if idx is not None and self._inquiries[idx][2] is None:
                started = self._inquiries[idx][1]
                self._inquiries[idx] = (dev, started, t_us - started)
        elif ev == "inquiry_done":
            self._open_inquiry.pop(dev, None)
        elif ev == "mcap_tx":
            op = detail.get("op")
            mdl = detail.get("mdl_id", 0)
            if op in _CREATE_OPS:
                self._create_counts[mdl] = self._create_counts.get(mdl, 0) + 1
            elif op in _RECONNECT_OPS:
                self._reconnect_counts[mdl] = self._reconnect_counts.get(mdl, 0) + 1
        elif ev == "mdl_create":
            report.create_handshake_msgs.append(self._create_counts.pop(detail["mdl_id"], 0))
        elif ev == "mdl_reconnect":
            report.reconnect_handshake_msgs.append(self._reconnect_counts.pop(detail["mdl_id"], 0))
        elif ev == "assoc":
            self._assoc_mdls.add(detail["mdl_id"])
        elif ev == "clock_sync":
            report.sync = {"offset_us": detail["offset_us"], "accuracy_us": detail["accuracy_us"]}
        elif ev == "admit":
            report.granted_bps[dev] = dict(detail.get("granted", {}))
        elif ev == "error":
            kind = detail.get("error", "unknown")
            report.errors[kind] = report.errors.get(kind, 0) + 1

    def report(self) -> MetricsReport:
        report = self._report
        report.discovery_latency_us = [latency for _dev, _t, latency in self._inquiries]
        return report


def compute_metrics(events: Iterable[TraceEvent]) -> MetricsReport:
    """Fold a whole kept trace into a MetricsReport, feeding every event."""
    fold = MetricsFold()
    for t_us, _seq, ev, dev, detail in events:
        if ev in TYPED:
            detail = tuple(detail[name] for name in TYPED[ev].fields)
        fold.feed(t_us, ev, dev, detail)
    return fold.report()


def metrics_json(report: MetricsReport) -> str:
    """The report as stable-key-order JSON; identical reports give identical
    bytes."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def emit_metrics(report: MetricsReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(metrics_json(report))

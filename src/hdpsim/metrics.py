"""Run metrics, computed entirely from the event trace.

Deriving every counter from the trace (rather than from live objects) keeps
the report a pure function of the run's observable record: identical traces
always produce identical metrics bytes. ``MetricsFold`` takes the events one
at a time as they are emitted, so a run need not keep its trace to report on
it; ``compute_metrics`` folds a kept trace the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .engine import TraceEvent


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
        return {
            "discovery_latency_us": self.discovery_latency_us,
            "reconnect_handshake_msgs": self.reconnect_handshake_msgs,
            "create_handshake_msgs": self.create_handshake_msgs,
            "measurements": {
                "sent": self.measurements.sent,
                "acked": self.measurements.acked,
                "buffered": self.measurements.buffered,
                "evicted": self.measurements.evicted,
                "delivered": self.measurements.delivered,
                "abandoned": self.measurements.abandoned,
                "in_flight": self.measurements.in_flight,
            },
            "sync": self.sync,
            "granted_bps": self.granted_bps,
            "errors": self.errors,
        }


_CREATE_OPS = {"create_req", "create_accept", "create_config", "create_confirm"}
_RECONNECT_OPS = {"reconnect_req", "reconnect_accept"}


class MetricsFold:
    """Online fold of trace events into a MetricsReport.

    ``feed`` takes each event as it is emitted; ``report`` returns the report
    of everything fed so far. The fold keeps per-inquiry, per-channel and
    per-reading state, never the events themselves.
    """

    def __init__(self):
        self._report = MetricsReport()
        self._inquiries: list[tuple[str, int, Optional[int]]] = []  # dev, started, latency
        self._open_inquiry: dict[str, int] = {}  # dev -> index into _inquiries
        self._create_counts: dict[int, int] = {}
        self._reconnect_counts: dict[int, int] = {}
        self._submitted: set[tuple[int, int]] = set()
        self._delivered: set[tuple[int, int]] = set()
        self._buffered: set[tuple[int, int]] = set()
        self._acked = 0
        self._mdl_of_assoc: dict[int, int] = {}

    def feed(self, event: TraceEvent) -> None:
        ev = event.ev
        d = event.detail
        report = self._report
        if ev == "inquiry_start":
            self._open_inquiry[event.dev] = len(self._inquiries)
            self._inquiries.append((event.dev, event.t_us, None))
        elif ev == "inquiry_resp":
            idx = self._open_inquiry.get(event.dev)
            if idx is not None and self._inquiries[idx][2] is None:
                dev, started, _ = self._inquiries[idx]
                self._inquiries[idx] = (dev, started, event.t_us - started)
        elif ev == "inquiry_done":
            self._open_inquiry.pop(event.dev, None)
        elif ev == "mcap_tx":
            op = d.get("op")
            mdl = d.get("mdl_id", 0)
            if op in _CREATE_OPS:
                self._create_counts[mdl] = self._create_counts.get(mdl, 0) + 1
            elif op in _RECONNECT_OPS:
                self._reconnect_counts[mdl] = self._reconnect_counts.get(mdl, 0) + 1
        elif ev == "mdl_create":
            report.create_handshake_msgs.append(self._create_counts.pop(d["mdl_id"], 0))
        elif ev == "mdl_reconnect":
            report.reconnect_handshake_msgs.append(
                self._reconnect_counts.pop(d["mdl_id"], 0)
            )
        elif ev == "assoc":
            self._mdl_of_assoc[d["assoc_id"]] = d["mdl_id"]
        elif ev == "measurement_tx":
            self._submitted.add((d["assoc_id"], d["seq"]))
        elif ev == "buffered":
            self._submitted.add((d["assoc_id"], d["seq"]))
            self._buffered.add((d["assoc_id"], d["seq"]))
        elif ev == "measurement_rx":
            self._delivered.add((d["assoc_id"], d["seq"]))
        elif ev == "mdl_ack":
            if d.get("mdl_id") in self._mdl_of_assoc.values():
                self._acked += 1
        elif ev == "evicted":
            report.measurements.evicted += 1
        elif ev == "released":
            report.measurements.abandoned += d.get("abandoned", 0)
        elif ev == "clock_sync":
            report.sync = {
                "offset_us": d["offset_us"],
                "accuracy_us": d["accuracy_us"],
            }
        elif ev == "admit":
            report.granted_bps[event.dev] = dict(d.get("granted", {}))
        elif ev == "error":
            kind = d.get("error", "unknown")
            report.errors[kind] = report.errors.get(kind, 0) + 1

    def report(self) -> MetricsReport:
        report = self._report
        report.discovery_latency_us = [latency for _dev, _t, latency in self._inquiries]
        report.measurements.sent = len(self._submitted)
        report.measurements.delivered = len(self._delivered)
        report.measurements.buffered = len(self._buffered)
        report.measurements.acked = self._acked
        return report


def compute_metrics(events: Iterable[TraceEvent]) -> MetricsReport:
    """Fold a whole trace into a MetricsReport."""
    fold = MetricsFold()
    for event in events:
        fold.feed(event)
    return fold.report()


def metrics_json(report: MetricsReport) -> str:
    """The report as stable-key-order JSON; identical reports give identical
    bytes."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def emit_metrics(report: MetricsReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(metrics_json(report))

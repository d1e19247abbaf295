"""Run metrics, computed entirely from the event trace.

Deriving every counter from the trace (rather than from live objects) keeps
the report a pure function of the run's observable record: identical traces
always produce identical metrics bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

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


def compute_metrics(events: list[TraceEvent]) -> MetricsReport:
    """Fold the trace into a MetricsReport."""
    report = MetricsReport()
    inquiries: list[tuple[str, int, Optional[int]]] = []  # dev, started, latency
    open_inquiry: dict[str, int] = {}  # dev -> index into inquiries
    create_counts: dict[int, int] = {}
    reconnect_counts: dict[int, int] = {}
    submitted: set[tuple[int, int]] = set()
    delivered: set[tuple[int, int]] = set()
    acked = 0
    buffered: set[tuple[int, int]] = set()
    mdl_of_assoc: dict[int, int] = {}

    for event in events:
        ev = event.ev
        d = event.detail
        if ev == "inquiry_start":
            open_inquiry[event.dev] = len(inquiries)
            inquiries.append((event.dev, event.t_us, None))
        elif ev == "inquiry_resp":
            idx = open_inquiry.get(event.dev)
            if idx is not None and inquiries[idx][2] is None:
                dev, started, _ = inquiries[idx]
                inquiries[idx] = (dev, started, event.t_us - started)
        elif ev == "inquiry_done":
            open_inquiry.pop(event.dev, None)
        elif ev == "mcap_tx":
            op = d.get("op")
            mdl = d.get("mdl_id", 0)
            if op in _CREATE_OPS:
                create_counts[mdl] = create_counts.get(mdl, 0) + 1
            elif op in _RECONNECT_OPS:
                reconnect_counts[mdl] = reconnect_counts.get(mdl, 0) + 1
        elif ev == "mdl_create":
            report.create_handshake_msgs.append(create_counts.pop(d["mdl_id"], 0))
        elif ev == "mdl_reconnect":
            report.reconnect_handshake_msgs.append(
                reconnect_counts.pop(d["mdl_id"], 0)
            )
        elif ev == "assoc":
            mdl_of_assoc[d["assoc_id"]] = d["mdl_id"]
        elif ev == "measurement_tx":
            submitted.add((d["assoc_id"], d["seq"]))
        elif ev == "buffered":
            submitted.add((d["assoc_id"], d["seq"]))
            buffered.add((d["assoc_id"], d["seq"]))
        elif ev == "measurement_rx":
            delivered.add((d["assoc_id"], d["seq"]))
        elif ev == "mdl_ack":
            if d.get("mdl_id") in mdl_of_assoc.values():
                acked += 1
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

    report.discovery_latency_us = [latency for _dev, _t, latency in inquiries]
    report.measurements.sent = len(submitted)
    report.measurements.delivered = len(delivered)
    report.measurements.buffered = len(buffered)
    report.measurements.acked = acked
    return report


def metrics_json(report: MetricsReport) -> str:
    """The report as stable-key-order JSON; identical reports give identical
    bytes."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def emit_metrics(report: MetricsReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(metrics_json(report))

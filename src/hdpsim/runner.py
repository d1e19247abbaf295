"""Scenario execution: build a stack, run the timeline, report trace/metrics.

Each run constructs a fresh engine with the scenario's medium and the given
seed, wires the protocol managers, applies device configuration, schedules
the timeline, and runs to the horizon (the latest timeline time unless
overridden). Metrics are folded from the events the fold reads as they are
emitted; given an output, the trace is written to it line by line instead of
being kept. Validation hands over typed devices and actions with every default
filled in (see ``scenario.ACTIONS``), so nothing here parses a value or
repeats a default. ``HANDLERS`` is built from ``ACTIONS``: the handler of
action ``x`` is ``ScenarioRun._x``.
Device modes and ``set_mode`` go through one ``_set_modes``. The later sends
of a ``send_measurement`` are queued one at a time, each under an event id
reserved when the action ran, so they fire where queuing them all at once
would put them. Action failures, those later sends included, become "error"
trace events rather than aborting the run; structural invariant breaches
abort with InvariantViolation. The topology is walked after an action only
when ``LinkManager.topology_changes`` has moved since the last clean walk,
and always at the horizon.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, TextIO

from .core import DeviceAddress, DeviceConfig, DeviceName
from .discovery import ConnectabilityMode, DiscoverabilityMode, DiscoveryManager
from .engine import Device, Engine, MediumModel, Trace
from .hdp import Association, HdpError, HdpManager, validate_channel_kind
from .link import LinkError, LinkManager
from .mcap import McapError, McapManager
from .metrics import MetricsFold, MetricsReport, compute_metrics  # noqa: F401 (re-exported)
from .params import SimParams
from .scenario import ACTIONS, Scenario
from .security import EmptyPin, NotAuthenticated

log = logging.getLogger(__name__)

_ACTION_ERRORS = (LinkError, McapError, HdpError, NotAuthenticated, EmptyPin, ValueError)


class InvariantViolation(Exception):
    """A structural invariant failed mid-run."""

    def __init__(self, invariant: str, t_us: int):
        super().__init__(f"{invariant} at t={t_us}us")
        self.invariant = invariant
        self.t_us = t_us


@dataclass
class Stack:
    """One engine plus its protocol managers."""

    engine: Engine
    params: SimParams
    discovery: DiscoveryManager
    links: LinkManager
    mcap: McapManager
    hdp: HdpManager


def build_stack(
    medium: Optional[MediumModel] = None,
    seed: Optional[int] = None,
    params: Optional[SimParams] = None,
) -> Stack:
    engine = Engine(medium=medium, seed=seed)
    params = params or SimParams()
    discovery = DiscoveryManager(engine, params)
    links = LinkManager(engine, discovery, params)
    mcap = McapManager(engine, links, params)
    hdp = HdpManager(engine, links, mcap, params)
    return Stack(engine, params, discovery, links, mcap, hdp)


class ScenarioRun:
    """Executes one scenario timeline on a fresh stack."""

    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        medium = MediumModel(**scenario.medium)
        self.stack = build_stack(medium=medium, seed=seed, params=scenario.params)
        self.metrics = MetricsFold()
        trace = self.stack.engine.trace
        trace.feed, trace.feed_events = self.metrics.feed, MetricsFold.EVENTS
        self._walked_at = 0  # links.topology_changes at the last clean walk
        self._assocs: dict[tuple[DeviceAddress, DeviceAddress], Association] = {}
        self._configure_devices()

    def _configure_devices(self) -> None:
        stack = self.stack
        for spec_dev in self.scenario.devices:
            device = stack.engine.add_device(
                DeviceConfig(
                    address=spec_dev.address,
                    name=DeviceName(spec_dev.name),
                    position=spec_dev.position,
                    radio_range_m=spec_dev.radio_range_m,
                    clock_offset_us=spec_dev.clock_offset_us,
                )
            )
            self._set_modes(
                device,
                spec_dev.discoverability,
                spec_dev.connectability,
                spec_dev.limited_window_us,
            )
            if spec_dev.pin is not None:
                stack.links.set_pin(spec_dev.address, spec_dev.pin)
            if spec_dev.role is not None:
                stack.hdp.set_role(spec_dev.address, spec_dev.role)
            if spec_dev.sink_whitelist is not None:
                stack.hdp.set_sink_whitelist(spec_dev.address, spec_dev.sink_whitelist)
            if spec_dev.rate_cap_bps is not None:
                stack.links.set_rate_cap(spec_dev.address, spec_dev.rate_cap_bps)

    def _set_modes(
        self,
        device: Device,
        discoverability: Optional[DiscoverabilityMode],
        connectability: Optional[ConnectabilityMode],
        window_us: Optional[int],
    ) -> None:
        if discoverability is not None:
            self.stack.discovery.set_discoverability(device, discoverability, window_us)
        if connectability is not None:
            self.stack.discovery.set_connectability(device, connectability)

    # -- actions: one handler per scenario.ACTIONS entry ----------------------

    def _run_action(self, action: dict) -> None:
        self._attempt(action["action"], HANDLERS[action["action"]], self, action)
        if self.stack.links.topology_changes != self._walked_at:
            self._check_invariants()

    def _attempt(self, kind: str, fn: Callable[..., object], *args) -> None:
        """Call ``fn(*args)``; a failure becomes an ``error`` event."""
        try:
            fn(*args)
        except _ACTION_ERRORS as exc:
            self.stack.engine.emit(
                "error", None, action=kind, error=type(exc).__name__, detail=str(exc)
            )

    def _set_mode(self, action: dict) -> None:
        self._set_modes(
            self.stack.engine.device(action["device"]),
            action["discoverability"],
            action["connectability"],
            action["window_us"],
        )

    def _start_inquiry(self, action: dict) -> None:
        device = self.stack.engine.device(action["device"])
        self.stack.discovery.start_inquiry(device, action["duration_us"])

    def _page(self, action: dict) -> None:
        self.stack.links.page(self.stack.engine.device(action["device"]), action["target"])

    def _associate(self, action: dict) -> None:
        stack = self.stack
        source = stack.engine.device(action["source"])
        sink = stack.engine.device(action["sink"])
        stack.mcap.open_control_channel(source, sink)
        self._assocs[(source.address, sink.address)] = stack.hdp.associate(
            source, sink, action["specialization"], action["auto_reconnect"]
        )

    def _send_measurement(self, action: dict) -> None:
        engine = self.stack.engine
        send = self.stack.hdp.send_measurement
        assoc = self._assoc_for(action)
        readings = action["readings"]
        send(assoc, readings)
        count, interval, start = action["count"], action["interval_us"], engine.now
        if count < 2:
            return
        # Send i goes at start + i * interval under id first + i - 1; only
        # the next send is queued, and each one queues the send after it.
        first = engine.reserve_ids(count - 1)
        i = 0  # the send last fired; send 0 went above

        def fire() -> None:
            nonlocal i
            i += 1
            if i + 1 < count:
                engine.schedule_as(first + i, start + (i + 1) * interval, fire)
            self._attempt("send_measurement", send, assoc, readings)

        engine.schedule_as(first, start + interval, fire)

    def _move_device(self, action: dict) -> None:
        self.stack.engine.move_device(action["device"], action["position"])

    def _drop_link(self, action: dict) -> None:
        self.stack.links.drop_link(action["a"], action["b"])

    def _admit_traffic(self, action: dict) -> None:
        self.stack.links.admit_traffic(action["master"], action["requested"])

    def _release(self, action: dict) -> None:
        self.stack.hdp.release(self._assoc_for(action))

    def _request_channel(self, action: dict) -> None:
        validate_channel_kind(action["kind"])
        source = self.stack.engine.device(action["source"])
        sink = self.stack.engine.device(action["sink"])
        control = self.stack.mcap.open_control_channel(source, sink)
        self.stack.mcap.create_data_channel(control, source, reliable=False)

    def _run_until(self, action: dict) -> None:
        """Nothing to do: its ``t_us`` only sets the horizon."""

    def _assoc_for(self, action: dict) -> Association:
        key = (action["source"], action["sink"])
        assoc = self._assocs.get(key)
        if assoc is None:
            raise HdpError(
                f"no association between {action['source']} and {action['sink']}"
            )
        return assoc

    def _check_invariants(self) -> None:
        links = self.stack.links
        problems = links.topology_violations()
        if problems:
            raise InvariantViolation(problems[0], self.stack.engine.now)
        self._walked_at = links.topology_changes

    # -- execution ----------------------------------------------------------

    def run(
        self, until_us: Optional[int] = None, out: Optional[TextIO] = None
    ) -> tuple[Trace, MetricsReport]:
        """Run to the horizon; the metrics are folded as events are emitted.

        With ``out``, each trace line is written to it as the event happens
        and kept nowhere; without, the returned ``Trace`` keeps the lines.
        """
        engine = self.stack.engine
        engine.trace.out = out
        horizon = until_us
        if horizon is None:
            horizon = max((a["t_us"] for a in self.scenario.timeline), default=0)
        log.debug(
            "run start: %d devices, %d actions, horizon %d us",
            len(engine.devices), len(self.scenario.timeline), horizon,
        )
        for action in self.scenario.timeline:
            if action["t_us"] > horizon:
                break
            engine.schedule(action["t_us"], lambda a=action: self._run_action(a))
        engine.run_until(horizon)
        log.debug(
            "run end: %d event ids issued, %d trace events", engine.reserve_ids(0), len(engine.trace)
        )
        self._check_invariants()
        report = self.metrics.report()
        counters = report.measurements
        if counters.delivered > counters.sent or counters.in_flight < 0:
            raise InvariantViolation(
                "measurement accounting: delivered+evicted+abandoned exceeds sent",
                engine.now,
            )
        return engine.trace, report


# ScenarioRun._<action> for each action; one that is missing fails at import.
HANDLERS: dict[str, Callable[[ScenarioRun, dict], None]] = {
    kind: getattr(ScenarioRun, "_" + kind) for kind in ACTIONS
}


def run_scenario(
    scenario: Scenario,
    seed: int,
    until_us: Optional[int] = None,
    out: Optional[TextIO] = None,
) -> tuple[Trace, MetricsReport]:
    """Execute a validated scenario and return its trace and metrics.

    With ``out`` the trace is streamed to it (see ``ScenarioRun.run``).
    """
    return ScenarioRun(scenario, seed).run(until_us, out)

"""Scenario execution: build a stack, run the timeline, report trace/metrics.

Each run constructs a fresh engine with the scenario's medium and the given
seed, wires the protocol managers, applies device configuration, schedules
the timeline, and runs to the horizon (the latest timeline time unless
overridden). Action failures become "error" trace events rather than
aborting the run; structural invariant breaches abort with
InvariantViolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import DeviceAddress, DeviceConfig, DeviceName
from .discovery import ConnectabilityMode, DiscoverabilityMode, DiscoveryManager
from .engine import Engine, MediumModel, Trace
from .hdp import (
    Association,
    ChannelKind,
    HdpError,
    HdpManager,
    Specialization,
    validate_channel_kind,
)
from .link import LinkError, LinkManager, pair_key
from .mcap import McapError, McapManager
from .metrics import MetricsReport, compute_metrics
from .params import SimParams
from .scenario import Scenario
from .security import EmptyPin, NotAuthenticated, Pin

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
    return Stack(
        engine=engine,
        params=params,
        discovery=discovery,
        links=links,
        mcap=mcap,
        hdp=hdp,
    )


class ScenarioRun:
    """Executes one scenario timeline on a fresh stack."""

    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        medium = MediumModel(
            loss_probability=float(scenario.medium.get("loss_probability", 0.0)),
            rng_seed=seed,
            propagation_us=int(scenario.medium.get("propagation_us", 1)),
            jitter_us=int(scenario.medium.get("jitter_us", 0)),
        )
        params = SimParams.with_overrides(scenario.overrides)
        self.stack = build_stack(medium=medium, seed=seed, params=params)
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
            mode = DiscoverabilityMode(spec_dev.discoverability)
            if mode is DiscoverabilityMode.LIMITED:
                stack.discovery.set_discoverability(
                    device, mode, window_us=spec_dev.limited_window_us
                )
            else:
                stack.discovery.set_discoverability(device, mode)
            stack.discovery.set_connectability(
                device, ConnectabilityMode(spec_dev.connectability)
            )
            if spec_dev.pin is not None:
                stack.links.set_pin(spec_dev.address, Pin.from_text(spec_dev.pin))
            if spec_dev.role is not None:
                stack.hdp.set_role(spec_dev.address, spec_dev.role)
            if spec_dev.sink_whitelist is not None:
                stack.hdp.set_sink_whitelist(
                    spec_dev.address,
                    {Specialization[s.upper()] for s in spec_dev.sink_whitelist},
                )
            if spec_dev.rate_cap_bps is not None:
                stack.links.set_rate_cap(spec_dev.address, spec_dev.rate_cap_bps)

    # -- actions ------------------------------------------------------------

    def _run_action(self, action: dict) -> None:
        try:
            self._dispatch(action)
        except _ACTION_ERRORS as exc:
            self.stack.engine.emit(
                "error",
                None,
                action=action["action"],
                error=type(exc).__name__,
                detail=str(exc),
            )
        self._check_invariants()

    def _dispatch(self, action: dict) -> None:
        stack = self.stack
        engine = stack.engine
        kind = action["action"]
        if kind == "run_until":
            return
        if kind == "set_mode":
            device = engine.device(action["device"])
            if "discoverability" in action:
                mode = DiscoverabilityMode(action["discoverability"])
                if mode is DiscoverabilityMode.LIMITED:
                    stack.discovery.set_discoverability(
                        device, mode, window_us=action["window_us"]
                    )
                else:
                    stack.discovery.set_discoverability(device, mode)
            if "connectability" in action:
                stack.discovery.set_connectability(
                    device, ConnectabilityMode(action["connectability"])
                )
        elif kind == "start_inquiry":
            stack.discovery.start_inquiry(
                engine.device(action["device"]), action["duration_us"]
            )
        elif kind == "page":
            stack.links.page(engine.device(action["device"]), action["target"])
        elif kind == "associate":
            source = engine.device(action["source"])
            sink = engine.device(action["sink"])
            if stack.mcap.controls.get(pair_key(source.address, sink.address)) is None:
                stack.mcap.open_control_channel(source, sink)
            assoc = stack.hdp.associate(
                source, sink, Specialization[action["specialization"].upper()]
            )
            self._assocs[(source.address, sink.address)] = assoc
        elif kind == "send_measurement":
            assoc = self._assoc_for(action)
            readings = action["readings"]
            count = action.get("count", 1)
            interval = action.get("interval_us", 1_000_000)
            stack.hdp.send_measurement(assoc, readings)
            for i in range(1, count):
                engine.schedule(
                    engine.now + i * interval,
                    lambda a=assoc, r=readings: self._timed_send(a, r),
                )
        elif kind == "move_device":
            x, y = action["position"]
            engine.move_device(action["device"], (float(x), float(y)))
        elif kind == "drop_link":
            stack.links.drop_link(action["a"], action["b"])
        elif kind == "admit_traffic":
            requested = {}
            for key, bps in action["requested"].items():
                requested[DeviceAddress.parse(key)] = bps
            stack.links.admit_traffic(action["master"], requested)
        elif kind == "release":
            assoc = self._assoc_for(action)
            stack.hdp.release(assoc)
        elif kind == "request_channel":
            validate_channel_kind(ChannelKind(action["kind"]))
            source = engine.device(action["source"])
            sink = engine.device(action["sink"])
            control = stack.mcap.controls.get(pair_key(source.address, sink.address))
            if control is None:
                control = stack.mcap.open_control_channel(source, sink)
            stack.mcap.create_data_channel(control, source, reliable=False)
        else:
            raise ValueError(f"unhandled action {kind}")

    def _assoc_for(self, action: dict) -> Association:
        key = (action["source"], action["sink"])
        assoc = self._assocs.get(key)
        if assoc is None:
            raise HdpError(
                f"no association between {action['source']} and {action['sink']}"
            )
        return assoc

    def _timed_send(self, assoc: Association, readings: dict) -> None:
        try:
            self.stack.hdp.send_measurement(assoc, readings)
        except _ACTION_ERRORS as exc:
            self.stack.engine.emit(
                "error",
                None,
                action="send_measurement",
                error=type(exc).__name__,
                detail=str(exc),
            )

    def _check_invariants(self) -> None:
        problems = self.stack.links.topology_violations()
        if problems:
            raise InvariantViolation(problems[0], self.stack.engine.now)

    # -- execution ----------------------------------------------------------

    def run(self, until_us: Optional[int] = None) -> tuple[Trace, MetricsReport]:
        engine = self.stack.engine
        horizon = until_us
        if horizon is None:
            horizon = max((a["t_us"] for a in self.scenario.timeline), default=0)
        for action in self.scenario.timeline:
            if action["t_us"] > horizon:
                break
            engine.schedule(action["t_us"], lambda a=action: self._run_action(a))
        engine.run_until(horizon)
        self._check_invariants()
        report = compute_metrics(engine.trace.events)
        counters = report.measurements
        if counters.delivered > counters.sent or counters.in_flight < 0:
            raise InvariantViolation(
                "measurement accounting: delivered+evicted+abandoned exceeds sent",
                engine.now,
            )
        return engine.trace, report


def run_scenario(
    scenario: Scenario, seed: int, until_us: Optional[int] = None
) -> tuple[Trace, MetricsReport]:
    """Execute a validated scenario and return its trace and metrics."""
    return ScenarioRun(scenario, seed).run(until_us)

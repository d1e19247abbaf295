"""Device discovery: standby scanning, discoverability modes, inquiry sweeps.

An idle device listens on one of 32 frequencies at a time, changing frequency
every scan window (1.28 s), so a full listening sweep takes 40.96 s. An
inquiring device transmits on all 32 frequencies within each 10 ms cycle and
collects responses until its deadline. Whether a scanned device answers is
governed by its discoverability mode; whether it accepts connections is a
separate connectability setting.

The inquiry transmit sweep is simulated per cycle rather than per frame: for
each cycle the manager computes which transmit slots fall inside some
listener's current scan window and broadcasts only those. Slots nobody could
hear produce no deliveries and no random draws either way, so the shortcut is
observably identical to transmitting all 32 frames. A listener's scan window
depends only on its clock offset, so the slots are computed once per distinct
offset among the other devices, not once per device. Each inquirer's set of
offsets is kept until the device count changes: devices are never removed
and offsets are frozen config. A response from a device the inquiry has
already found still makes its loss and jitter draws, but it is not queued
when it must land before the deadline, where the inquiry would ignore it.

A sweep slot is not broadcast at all when, at its own time, the medium draws
nothing (no loss, no jitter), ``now + 2 * propagation_us`` is before the
deadline, ``_on_inquiry`` is the only inquiry handler and every device in the
inquirer's range is in ``_seen``: each delivery would end in such a response,
so only event ids are saved. An unseen neighbour blocks this even when it is
non-discoverable, since its mode is read when the frame lands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .core import DeviceAddress, DeviceName, decode_name, encode_name
from .engine import FREQ_COUNT, Device, Engine, FrameKind, RadioFrame, SimTime
from .params import SimParams


class DiscoverabilityMode(enum.Enum):
    DISCOVERABLE = "discoverable"
    LIMITED = "limited"
    NON_DISCOVERABLE = "non_discoverable"


class ConnectabilityMode(enum.Enum):
    CONNECTABLE = "connectable"
    NON_CONNECTABLE = "non_connectable"


class InquiryInProgress(Exception):
    """The device already has an active inquiry."""


def scan_frequency(window_index: int) -> int:
    """Listening frequency for the given scan window ordinal."""
    return window_index % FREQ_COUNT


@dataclass(frozen=True)
class ScanSchedule:
    """Deterministic standby listening pattern of one device."""

    window_us: int

    def window_index(self, local_time_us: SimTime) -> int:
        return local_time_us // self.window_us

    def frequency_at(self, local_time_us: SimTime) -> int:
        return scan_frequency(self.window_index(local_time_us))

    def full_sweep_us(self) -> int:
        return self.window_us * FREQ_COUNT


@dataclass(frozen=True)
class DiscoveryResult:
    address: DeviceAddress
    name: DeviceName
    discovered_at: SimTime


@dataclass
class _ModeState:
    discoverability: DiscoverabilityMode = DiscoverabilityMode.DISCOVERABLE
    limited_until_us: SimTime = 0
    connectability: ConnectabilityMode = ConnectabilityMode.CONNECTABLE


@dataclass
class Inquiry:
    """Handle for one inquiry run; results are final once ``done`` is True."""

    device: Device
    started_at: SimTime
    duration_us: int
    results: list[DiscoveryResult] = field(default_factory=list)
    done: bool = False
    _seen: set[DeviceAddress] = field(default_factory=set)
    deadline_us: SimTime = field(init=False)

    def __post_init__(self):
        self.deadline_us = self.started_at + self.duration_us


def sweep_slots(
    params: SimParams,
    schedule: ScanSchedule,
    listener_offset_us: int,
    cycle_start: SimTime,
    not_after: SimTime,
) -> list[tuple[SimTime, int]]:
    """Transmit slots within one sweep cycle that the listener's scan hits.

    Returns (slot start in sim time, frequency) pairs, at most two: a scan
    window boundary can cross the cycle, splitting it between two
    frequencies. Slots starting at or after ``not_after`` are excluded.
    """
    cycle_end = min(cycle_start + params.inquiry_cycle_us, not_after)
    hits: list[tuple[SimTime, int]] = []
    seg_start = cycle_start
    while seg_start < cycle_end:
        local = seg_start + listener_offset_us
        window = schedule.window_index(local)
        freq = scan_frequency(window)
        # Sim time at which the listener hops to its next scan frequency.
        boundary = (window + 1) * schedule.window_us - listener_offset_us
        seg_end = min(boundary, cycle_end)
        slot = cycle_start + freq * params.inquiry_slot_us
        if seg_start <= slot < seg_end:
            hits.append((slot, freq))
        seg_start = seg_end
    return hits


class DiscoveryManager:
    """Per-engine discovery state: modes, scans, inquiries, known addresses."""

    def __init__(self, engine: Engine, params: SimParams):
        self.engine = engine
        self.params = params
        self.schedule = ScanSchedule(params.scan_window_us)
        self._modes: dict[DeviceAddress, _ModeState] = {}
        self._known: dict[DeviceAddress, set[DeviceAddress]] = {}
        self._active: dict[DeviceAddress, Inquiry] = {}
        # device -> its inquiry response payload (address, name); the config
        # it is built from is frozen
        self._responses: dict[Device, bytes] = {}
        # inquirer -> (engine device count, clock offsets of the other devices)
        self._offsets: dict[Device, tuple[int, set[int]]] = {}
        engine.add_frame_handler(FrameKind.INQUIRY, self._on_inquiry)
        engine.add_frame_handler(FrameKind.INQUIRY_RESPONSE, self._on_response)
        engine.add_listen_provider(self._listening)

    # -- mode configuration

    def _state(self, address: DeviceAddress) -> _ModeState:
        state = self._modes.get(address)
        if state is None:
            state = self._modes[address] = _ModeState()
        return state

    def set_discoverability(
        self,
        device: Device,
        mode: DiscoverabilityMode,
        window_us: int | None = None,
    ) -> None:
        state = self._state(device.address)
        if mode is DiscoverabilityMode.LIMITED:
            if window_us is None or window_us <= 0:
                raise ValueError("limited discoverability needs window_us > 0")
            state.limited_until_us = self.engine.now + window_us
        state.discoverability = mode

    def set_connectability(self, device: Device, mode: ConnectabilityMode) -> None:
        self._state(device.address).connectability = mode

    def discoverability(self, device: Device) -> DiscoverabilityMode:
        return self._state(device.address).discoverability

    def is_connectable(self, address: DeviceAddress) -> bool:
        return self._state(address).connectability is ConnectabilityMode.CONNECTABLE

    # -- discovered-address bookkeeping (page precondition)

    def note_known(self, owner: DeviceAddress, peer: DeviceAddress) -> None:
        self._known.setdefault(owner, set()).add(peer)

    def knows(self, owner: DeviceAddress, peer: DeviceAddress) -> bool:
        return peer in self._known.get(owner, set())

    # -- listening

    def _listening(self, device: Device, t: SimTime) -> tuple[int]:
        inquiry = self._active.get(device.address)
        if inquiry is not None and not inquiry.done:
            # While inquiring, listen where we are currently transmitting.
            elapsed = t - inquiry.started_at
            in_cycle = elapsed % self.params.inquiry_cycle_us
            return (min(in_cycle // self.params.inquiry_slot_us, FREQ_COUNT - 1),)
        # Standby: the scan frequency at the device's local time.
        return ((t + device.config.clock_offset_us) // self.schedule.window_us % FREQ_COUNT,)

    # -- inquiry

    def start_inquiry(self, device: Device, duration_us: int) -> Inquiry:
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        existing = self._active.get(device.address)
        if existing is not None and not existing.done:
            raise InquiryInProgress(str(device.address))
        now = self.engine.now
        inquiry = Inquiry(device=device, started_at=now, duration_us=duration_us)
        self._active[device.address] = inquiry
        self.engine.emit("inquiry_start", device.address, duration_us=duration_us)
        self.engine.schedule(now, lambda: self._cycle(inquiry))
        self.engine.schedule(inquiry.deadline_us, lambda: self._finish(inquiry))
        return inquiry

    def _cycle(self, inquiry: Inquiry) -> None:
        now = self.engine.now
        if inquiry.done or now >= inquiry.deadline_us:
            return
        inquirer = inquiry.device
        count, offsets = self._offsets.get(inquirer, (-1, None))
        if count != len(self.engine.devices):
            devices = self.engine.devices.values()
            offsets = {d.config.clock_offset_us for d in devices if d is not inquirer}
            self._offsets[inquirer] = (len(devices), offsets)
        slots: dict[SimTime, int] = {}
        for offset in offsets:
            for slot, freq in sweep_slots(
                self.params, self.schedule, offset, now, inquiry.deadline_us
            ):
                slots[slot] = freq
        for slot in sorted(slots):
            frame = tuple.__new__(
                RadioFrame, (inquirer.address, slots[slot], FrameKind.INQUIRY, b"", None, None, False)
            )
            if slot == now:
                self._sweep(inquiry, frame)
            else:
                self.engine.schedule(slot, lambda f=frame: self._sweep(inquiry, f))
        self.engine.schedule(
            now + self.params.inquiry_cycle_us, lambda: self._cycle(inquiry)
        )

    def _sweep(self, inquiry: Inquiry, frame: RadioFrame) -> None:
        """Broadcast one sweep slot's frame, unless the slot is quiet."""
        engine = self.engine
        medium = engine.medium
        if (
            medium.loss_probability == 0.0
            and medium.jitter_us == 0
            and engine.now + 2 * medium.propagation_us < inquiry.deadline_us
            and len(engine._frame_handlers[FrameKind.INQUIRY]) == 1  # _on_inquiry
            and all(d.address in inquiry._seen for d in engine._neighbours_of(inquiry.device))
        ):
            return
        engine.broadcast(frame, inquiry.device)

    def _finish(self, inquiry: Inquiry) -> None:
        if inquiry.done:
            return
        inquiry.done = True
        inquiry.results.sort(key=lambda r: (r.discovered_at, r.address))
        if self._active.get(inquiry.device.address) is inquiry:
            del self._active[inquiry.device.address]
        self.engine.emit(
            "inquiry_done",
            inquiry.device.address,
            found=len(inquiry.results),
        )

    # -- frame handlers

    def _on_inquiry(self, receiver: Device, frame: RadioFrame, now: SimTime) -> None:
        state = self._state(receiver.address)
        mode = state.discoverability
        if mode is DiscoverabilityMode.NON_DISCOVERABLE:
            return
        if mode is DiscoverabilityMode.LIMITED and now >= state.limited_until_us:
            return
        payload = self._responses.get(receiver)
        if payload is None:
            payload = receiver.address.to_bytes() + encode_name(receiver.config.name)
            self._responses[receiver] = payload
        # The inquiry active now is the one the response reaches if it lands
        # before that inquiry's deadline; one that has seen the responder
        # ignores it, so only the medium's draws are left to make.
        inquiry = self._active.get(frame.from_addr)
        medium = self.engine.medium
        draw_only = (
            inquiry is not None
            and not inquiry.done
            and receiver.address in inquiry._seen
            and now + max(1, medium.propagation_us + medium.jitter_us) < inquiry.deadline_us
        )
        response = tuple.__new__(RadioFrame, (
            receiver.address, frame.freq_index, FrameKind.INQUIRY_RESPONSE, payload,
            frame.from_addr, None, draw_only,
        ))
        self.engine.broadcast(response, receiver)

    def _on_response(self, receiver: Device, frame: RadioFrame, now: SimTime) -> None:
        inquiry = self._active.get(receiver.address)
        if inquiry is None or inquiry.done:
            return
        address = DeviceAddress.from_bytes(frame.payload[:6])
        if address in inquiry._seen:
            return
        inquiry._seen.add(address)
        name, _ = decode_name(frame.payload[6:])
        inquiry.results.append(
            DiscoveryResult(address=address, name=name, discovered_at=now)
        )
        self.note_known(receiver.address, address)
        self.engine.emit(
            "inquiry_resp",
            receiver.address,
            peer=str(address),
            name=name.text,
        )

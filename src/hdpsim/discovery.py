"""Device discovery: standby scanning, discoverability modes, inquiry sweeps.

An idle device listens on one of 32 frequencies at a time, changing frequency
every scan window (1.28 s), so a full listening sweep takes 40.96 s: at sim
time t it listens on ``(t + clock_offset_us) // scan_window_us % 32``, the
rule that ``sweep_slots``, the listen check and a settled run's stretches
apply. An inquiring device transmits on all 32 frequencies within each 10 ms
cycle and collects responses until its deadline. Whether a scanned device
answers is governed by its discoverability mode; whether it accepts
connections is a separate connectability setting.

The inquiry transmit sweep is simulated per cycle rather than per frame: for
each cycle the manager computes which transmit slots fall inside some
listener's current scan window and broadcasts only those. Slots nobody could
hear produce no deliveries and no random draws either way, so the shortcut is
observably identical to transmitting all 32 frames. A listener's scan window
depends only on its clock offset, so the slots are computed once per distinct
offset among the other devices, not once per device. Each inquirer's set of
offsets is kept until the device count changes: devices are never removed
and offsets are frozen config. A response from a device the inquiry has
already found is queued like any other and ignored when it lands.

A sweep slot is not broadcast at all when, at its own time, the medium draws
nothing (no loss, no jitter), ``now + 2 * propagation_us`` is before the
deadline, discovery's handlers are the only inquiry and response handlers
and every device in the inquirer's range is in ``_seen``: each delivery
would end in a response that draws nothing and is ignored, so only events
are saved. An unseen neighbour blocks this even when it is non-discoverable,
since its mode is read when the frame lands.

A cycle event settles a run of cycles inline when jitter is 0, each slot's
deliveries land before the next slot (the next cycle's first included),
discovery's handlers are the only inquiry and response handlers and every
device in range is in ``_seen`` or cannot answer (non-discoverable, or
limited with its window closed when the first frame lands). The run stops
short of the deadline and of ``Engine.settle_limit``: the first queued event
or the ``run_until`` bound. It draws early, scheduling nothing, in the plain
path's order: per unquiet slot, the inquiry to the inquirer's neighbours,
then one repeat response per delivered copy that answers. It goes a stretch
at a time, the cycles between two scan window changes. A stretch's first
cycle draws through ``Engine.draw``, and the rest in one loop of
``engine.rng.random()`` calls by its loss rule if, at the first, the medium
is lossy, every neighbour hears every slot through its scan (``_listening``)
and answers until the deadline, and the inquirer hears each slot's responses
through its inquiry listen (always: they land before the next slot). A scan
is fixed within a stretch, or repeats each cycle while inquiring, and a mode
change or a move is an event, so every later check passes too. It sets aside
the ids of the events it replaces (cycles, slots, and the deliveries of
inquiry frames and of repeat responses) and queues the first cycle it does
not settle, so trace, event ids and generator state are unchanged. An unseen
non-discoverable neighbour no longer keeps a settled run sending, though it
still keeps its slots from being quiet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

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
    params: SimParams, listener_offset_us: int, cycle_start: SimTime, not_after: SimTime
) -> list[tuple[SimTime, int]]:
    """Transmit slots within one sweep cycle that the listener's scan hits.

    Returns (slot start in sim time, frequency) pairs, at most two: a scan
    window boundary can cross the cycle, splitting it between two
    frequencies. Slots starting at or after ``not_after`` are excluded.
    """
    cycle_end = min(cycle_start + params.inquiry_cycle_us, not_after)
    hits: list[tuple[SimTime, int]] = []
    seg_start = cycle_start
    window_us = params.scan_window_us
    while seg_start < cycle_end:
        window = (seg_start + listener_offset_us) // window_us
        freq = window % FREQ_COUNT
        # Sim time at which the listener hops to its next scan frequency.
        boundary = (window + 1) * window_us - listener_offset_us
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
        self._modes: dict[DeviceAddress, _ModeState] = {}
        self._known: dict[DeviceAddress, set[DeviceAddress]] = {}
        # inquirer -> its running inquiry; a finished one is removed
        self._active: dict[Device, Inquiry] = {}
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
        inquiry = self._active.get(device)
        if inquiry is not None:
            # While inquiring, listen where we are currently transmitting.
            elapsed = t - inquiry.started_at
            in_cycle = elapsed % self.params.inquiry_cycle_us
            return (min(in_cycle // self.params.inquiry_slot_us, FREQ_COUNT - 1),)
        # Standby: the scan frequency at the device's local time.
        return ((t + device.config.clock_offset_us) // self.params.scan_window_us % FREQ_COUNT,)

    # -- inquiry

    def start_inquiry(self, device: Device, duration_us: int) -> Inquiry:
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        if device in self._active:
            raise InquiryInProgress(str(device.address))
        now = self.engine.now
        inquiry = Inquiry(device=device, started_at=now, duration_us=duration_us)
        self._active[device] = inquiry
        self.engine.emit("inquiry_start", device.address, duration_us=duration_us)
        self.engine.schedule(now, lambda: self._cycle(inquiry))
        self.engine.schedule(inquiry.deadline_us, lambda: self._finish(inquiry))
        return inquiry

    def _slots(self, inquiry: Inquiry, start: SimTime) -> list[tuple[SimTime, int]]:
        """The (time, frequency) sweep slots of the cycle at ``start`` that
        some other device's scan hears, in time order."""
        inquirer = inquiry.device
        count, offsets = self._offsets.get(inquirer, (-1, None))
        if count != len(self.engine.devices):
            devices = self.engine.devices.values()
            offsets = {d.config.clock_offset_us for d in devices if d is not inquirer}
            self._offsets[inquirer] = (len(devices), offsets)
        slots: dict[SimTime, int] = {}
        for offset in offsets:
            for slot, freq in sweep_slots(self.params, offset, start, inquiry.deadline_us):
                slots[slot] = freq
        return sorted(slots.items())

    def _cycle(self, inquiry: Inquiry) -> None:
        now = self.engine.now
        if now >= inquiry.deadline_us:
            return
        slots = self._slots(inquiry, now)
        if self._settle(inquiry, slots):
            return
        inquirer = inquiry.device
        for slot, freq in slots:
            frame = tuple.__new__(
                RadioFrame, (inquirer.address, freq, FrameKind.INQUIRY, b"", None, None)
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
        if not self._quiet(inquiry, self.engine.now):
            self.engine.broadcast(frame, inquiry.device)

    def _settle(self, inquiry: Inquiry, slots: list[tuple[SimTime, int]]) -> bool:
        """Settle the run of cycles from now, whose first has ``slots``, inline
        when the guards in the module docstring hold; whether it settled any."""
        engine = self.engine
        medium = engine.medium
        now, p, inquirer = engine.now, medium.propagation_us, inquiry.device
        limit = min(engine.settle_limit(), inquiry.deadline_us)
        if now + 2 * p >= limit:  # an early out: settling would end as the plain cycle does
            return False
        cycle_us, slot_us = self.params.inquiry_cycle_us, self.params.inquiry_slot_us
        # The least time from a slot to the next, the next cycle's first included.
        gap = min(slot_us, cycle_us - min(FREQ_COUNT - 1, (cycle_us - 1) // slot_us) * slot_us)
        first, neighbours = now + p, engine.neighbours(inquirer)  # first: the earliest delivery
        if (
            medium.jitter_us
            or p >= gap
            or not self._ignores(inquiry, [d for d in neighbours if self._answers(d, first)], first)
        ):
            return False
        # Only the time part of _quiet varies, and every settled slot meets it.
        quiet = self._quiet(inquiry, now)
        loss, rand = medium.loss_probability, engine.rng.random
        ids = 0  # of the cycle, slot, delivery and response events the run replaces
        start, stable, repeat = now, 0, None  # repeat: None until a stretch's first cycle drew
        while start < limit and not (slots and slots[-1][0] + 2 * p >= limit):
            if repeat:  # the rest of the stretch that the run reaches: loss draws alone
                edge = slots[-1][0] + 2 * p if slots else start
                cycles = min((stable - start) // cycle_us, (limit - 1 - edge) // cycle_us + 1)
                ids += cycles * (1 + sum(slot > start for slot, _ in slots))
                for _ in range(cycles * len(slots)):  # a slot's inquiry, then its responses
                    sent = 0
                    for _ in neighbours:
                        sent += rand() >= loss
                    for _ in range(sent):
                        ids += rand() >= loss
                    ids += sent
                start += cycles * cycle_us
            else:
                ids += start > now  # this cycle's event; the first one is firing
                for slot, freq in slots:
                    ids += slot > start  # one at its cycle's start is swept by the cycle event
                    if not quiet:  # the slot's inquiry deliveries, then its repeat responses
                        sent = engine.draw(freq, None, neighbours, slot)
                        answers = [inquirer for d, _ in sent if self._answers(d, slot + p)]
                        ids += len(sent) + len(engine.draw(freq, None, answers, slot + p))
                start += cycle_us
            if start + cycle_us <= stable and not repeat:  # no scan window change: shift the slots
                if repeat is None:  # the stretch's first cycle: do its checks hold throughout?
                    repeat = loss > 0.0 and all(self._answers(d, inquiry.deadline_us) and all(
                        f in self._listening(d, s) for s, f in slots) for d in neighbours)
                slots = [(slot + cycle_us, freq) for slot, freq in slots]
            else:  # a new stretch, until a listener next changes its scan window or the deadline
                slots, repeat = self._slots(inquiry, start), None
                window, offsets = self.params.scan_window_us, self._offsets[inquirer][1]
                hops = [(start + o) // window * window + window - o for o in offsets]
                stable = min(hops + [inquiry.deadline_us])
        if start == now:
            return False
        # The replaced events are never queued and every queued id lies
        # outside their block, so the next cycle's id may come last.
        engine.reserve_ids(ids)
        engine.schedule(start, lambda: self._cycle(inquiry))
        return True

    def _quiet(self, inquiry: Inquiry, t: SimTime) -> bool:
        """Whether the sweep slot at ``t`` can go unsent: the medium draws
        nothing, and every device in range would send a response that
        changes nothing (``_ignores``)."""
        engine = self.engine
        medium = engine.medium
        at = t + medium.propagation_us
        return (
            medium.loss_probability == 0.0
            and medium.jitter_us == 0
            and self._ignores(inquiry, engine.neighbours(inquiry.device), at)
        )

    def _answers(self, device: Device, t: SimTime) -> bool:
        """Whether the device answers an inquiry frame that lands at ``t``."""
        state = self._modes.get(device.address)
        return state is None or state.discoverability is DiscoverabilityMode.DISCOVERABLE or (
            state.discoverability is DiscoverabilityMode.LIMITED and t < state.limited_until_us
        )

    def _ignores(self, inquiry: Inquiry, devices: Iterable[Device], t: SimTime) -> bool:
        """Whether the responses the devices send at ``t`` change nothing: they
        land before the inquiry's deadline, it has found every device, and
        ``_on_inquiry`` and ``_on_response`` are the only handlers of inquiry
        frames and responses, so a skipped delivery reaches no other."""
        medium, handlers = self.engine.medium, self.engine._frame_handlers
        return (  # propagation_us >= 1: the responses land after t
            t + medium.propagation_us + medium.jitter_us < inquiry.deadline_us
            and len(handlers[FrameKind.INQUIRY]) == len(handlers[FrameKind.INQUIRY_RESPONSE]) == 1
            and all(d.address in inquiry._seen for d in devices)
        )

    def _finish(self, inquiry: Inquiry) -> None:
        """Queued once per inquiry, at its deadline; the only writer of ``done``."""
        inquiry.done = True
        inquiry.results.sort(key=lambda r: (r.discovered_at, r.address))
        del self._active[inquiry.device]
        self.engine.emit(
            "inquiry_done",
            inquiry.device.address,
            found=len(inquiry.results),
        )

    # -- frame handlers

    def _on_inquiry(self, receiver: Device, frame: RadioFrame, now: SimTime) -> None:
        if not self._answers(receiver, now):
            return
        payload = receiver.address.to_bytes() + encode_name(receiver.config.name)
        response = tuple.__new__(RadioFrame, (
            receiver.address, frame.freq_index, FrameKind.INQUIRY_RESPONSE, payload,
            frame.from_addr, None,
        ))
        self.engine.broadcast(response, receiver)

    def _on_response(self, receiver: Device, frame: RadioFrame, now: SimTime) -> None:
        inquiry = self._active.get(receiver)
        if inquiry is None:
            return
        # The responder's registered address, which the payload repeats: set
        # and dict lookups of it then match by identity.
        address = frame.from_addr
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

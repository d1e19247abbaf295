"""Deterministic discrete-event engine and the virtual radio medium.

One engine instance per simulation, single-threaded by contract. Events are
totally ordered by (time, event id). Ids follow scheduling order, except that
``reserve_ids`` sets ids aside for events that ``schedule_as`` queues later.
The same seed and the same scheduled inputs produce a byte-identical trace.

The medium delivers a frame to every registered device that is inside
min(sender range, receiver range) Euclidean distance and listening on the
frame's frequency index, both evaluated at transmit time. A frame addressed
to one device (inquiry responses and the page handshake) looks that device
up in the device table and considers no other; a link frame carries its
``link``, whose end that is not the sender is the addressee. An unaddressed
frame (an inquiry) visits the sender's neighbour list, the other devices in
its range in registration order, built on first use; ``add_device`` and
``move_device``, the only writers of positions, drop every list. Each
candidate delivery is independently dropped with the configured loss
probability using the engine's seeded generator, then delivered after a
fixed 1 us propagation delay (plus optional uniform jitter). Work whose
outcome is already known is skipped, though never a random draw: a link
frame skips the listen search, since its addressee listens on the link's hop
frequency by construction; a ``draw_only`` frame (a repeat inquiry response)
makes its draws and is not queued. A frame whose whole exchange is known is
not sent at all: the link layer settles a keepalive on a lossless,
jitter-free medium without frames (see ``hdpsim.link``), keeping its
delivery's event id from ``reserve_ids``. ``add_medium_hook`` reports each
``move_device`` and each replacement of ``medium``, and ``fired`` tells
whether the delivery's ``(t, id)`` has passed, so that a change that comes
first queues the real ``delivery`` under that id with ``schedule_as``.
Discovery settles a run of inquiry cycles in one event the same way (see
``hdpsim.discovery``); ``settle_limit`` bounds such a run by the first queued
event and the bound of the running ``run_until``, and outside ``run_until``
allows nothing, since API calls between runs queue no event.

Every protocol exchange that waits for an answer runs on one ``Retry``: it
sends at once, resends every interval, and fails exactly at its deadline,
the last wait being clamped to it. A ``Retry`` without a deadline (a
reliable channel's queue head) resends until it is resolved. Every
asynchronous operation returns one ``Op`` handle: ``done`` turns true once,
when ``result`` (on success) or ``error`` (on failure) is set and the
``on_complete`` callbacks run.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, TextIO

from .core import DeviceAddress, DeviceConfig, DuplicateAddress, SimTime

if TYPE_CHECKING:
    from .link import Link

FREQ_COUNT = 32


class SchedulingInPast(ValueError):
    """Attempt to schedule an event before the current sim time."""


class UnknownDevice(KeyError):
    """Operation referenced an address with no registered device."""


class FrameKind(enum.Enum):
    INQUIRY = "inquiry"
    INQUIRY_RESPONSE = "inquiry_response"
    PAGE = "page"
    LINK_DATA = "link_data"

    # Members are singletons: hash them by identity in C, not by name in
    # Enum.__hash__, since every delivery looks its kind's handlers up.
    __hash__ = object.__hash__


class RadioFrame(NamedTuple):
    """One over-the-air transmission.

    `to` narrows delivery to a single addressee (page and link traffic);
    broadcast frames leave it None. The payload is the encoded PDU bytes.
    `link` is the connected link whose hop frequency a frame is sent on: the
    addressee is its other end, found with no lookup, and the receiving
    handlers take the link from the frame. `draw_only` marks a frame whose
    delivery would change nothing: the medium makes its draws and schedules
    no delivery. Hot paths build frames with ``tuple.__new__``.
    """

    from_addr: DeviceAddress
    freq_index: int
    kind: FrameKind
    payload: bytes = b""
    to: Optional[DeviceAddress] = None
    link: Optional[Link] = None
    draw_only: bool = False


@dataclass(frozen=True)
class MediumModel:
    """Radio medium parameters. Defaults give lossless, jitter-free delivery."""

    loss_probability: float = 0.0
    propagation_us: int = 1
    jitter_us: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0,1]")
        if self.propagation_us < 1 or self.jitter_us < 0:
            raise ValueError("propagation_us must be >= 1 and jitter_us >= 0")


class Device:
    """Runtime wrapper of a registered device: static config + mutable position."""

    def __init__(self, config: DeviceConfig):
        self.config = config
        self.address: DeviceAddress = config.address
        self.position = config.position

    def local_time(self, now: SimTime) -> int:
        return now + self.config.clock_offset_us

    def __repr__(self) -> str:
        return f"Device({self.config.address})"


# One encoder for every trace line: json.dumps with these settings would build
# a new JSONEncoder per call, and JSONEncoder.encode a new C encoder per call.
# The C encoder built once here has _TRACE_ENCODER's settings but no cycle
# markers, which a failed call could leave behind; trace details are acyclic.
_TRACE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode_str = json.encoder.encode_basestring_ascii
if json.encoder.c_make_encoder is None:
    _encode_detail = _TRACE_ENCODER.encode
else:
    # markers, default, encoder, indent, separators, sort_keys, skipkeys, allow_nan
    _c_encode = json.encoder.c_make_encoder(
        None, _TRACE_ENCODER.default, _encode_str, None, ":", ",", True, False, True
    )

    def _encode_detail(detail: dict) -> str:
        return "".join(_c_encode(detail, 0))


def trace_line(t_us: SimTime, seq: int, ev: str, dev: str, detail: dict) -> str:
    """An event's trace line: ``_TRACE_ENCODER``'s text of the event as a
    dict, keys in sorted order, and a newline. Every line is made here."""
    return '{"detail":%s,"dev":%s,"ev":%s,"seq":%d,"t_us":%d}\n' % (
        _encode_detail(detail),
        _encode_str(dev),
        _encode_str(ev),
        seq,
        t_us,
    )


class TraceEvent(NamedTuple):
    t_us: SimTime
    seq: int
    ev: str
    dev: str
    detail: dict

    def to_json(self) -> str:
        """The event's trace line without its newline."""
        return trace_line(*self)[:-1]


class Trace:
    """Append-only, time-monotonic record of a run.

    ``append`` checks the time and numbers the event. Without an output it
    keeps the event as a ``TraceEvent`` in ``events``, and ``to_jsonl`` and
    ``sha256`` describe them. With an output (a text file set as ``out``
    before the first event), it writes the event's ``trace_line`` and keeps
    nothing, so ``events`` stays empty and memory does not grow with the
    run. Either way ``feed``, when set, receives ``(t_us, ev, dev, detail)``
    of each event whose name is in ``feed_events``, and ``len`` counts every
    event.
    """

    def __init__(self):
        self.out: Optional[TextIO] = None
        self.feed: Optional[Callable[[SimTime, str, str, dict], None]] = None
        self.feed_events: frozenset[str] = frozenset()
        self.events: list[TraceEvent] = []
        self._count = 0
        self._last_t_us: SimTime = 0

    def append(self, t_us: SimTime, ev: str, dev: str, detail: dict) -> None:
        if t_us < self._last_t_us:
            raise ValueError(f"trace time went backwards: {t_us} < {self._last_t_us}")
        seq = self._count
        self._count = seq + 1
        self._last_t_us = t_us
        if self.out is None:
            self.events.append(TraceEvent(t_us, seq, ev, dev, detail))
        else:
            self.out.write(trace_line(t_us, seq, ev, dev, detail))
        if ev in self.feed_events:
            self.feed(t_us, ev, dev, detail)

    def to_jsonl(self) -> str:
        return "".join(trace_line(*e) for e in self.events)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self.events)


# Heap entries are [at, seq, callback]; a cancelled entry has callback None.
_CANCELLED = None
# The id of "the event now firing" outside run_until: every queued event at
# or before ``now`` has fired.
_IDLE = float("inf")


class Engine:
    """Event queue, sim clock, trace, seeded RNG, and the radio medium."""

    def __init__(self, medium: MediumModel | None = None, seed: int | None = None):
        self._medium = medium or MediumModel()
        self.seed = seed if seed is not None else 0
        self.rng = random.Random(self.seed)
        self.now: SimTime = 0
        self.trace = Trace()
        self.devices: dict[DeviceAddress, Device] = {}
        self._neighbours: dict[Device, list[Device]] = {}  # see _neighbours_of
        self._heap: list[list] = []
        self._next_seq = 0
        self._entries: dict[int, list] = {}
        self._firing: int | float = _IDLE  # see fired
        self._until: SimTime | float = -_IDLE  # run_until's bound; -inf outside it
        # kind -> [fn(receiver_device, frame, now)]
        self._frame_handlers: dict[FrameKind, list[Callable]] = {k: [] for k in FrameKind}
        # fn(device, t) -> iterable of frequency indices the device listens on
        self._listen_providers: list[Callable[[Device, SimTime], Iterable[int]]] = []
        # fn(device) after a move, fn(None) after the medium model is replaced
        self._medium_hooks: list[Callable[[Optional[Device]], None]] = []

    @property
    def medium(self) -> MediumModel:
        return self._medium

    @medium.setter
    def medium(self, model: MediumModel) -> None:
        self._medium = model
        for fn in self._medium_hooks:
            fn(None)

    # -- devices ------------------------------------------------------------

    def add_device(self, config: DeviceConfig) -> Device:
        if config.address in self.devices:
            raise DuplicateAddress(f"address already registered: {config.address}")
        device = self.devices[config.address] = Device(config)
        self._neighbours.clear()
        return device

    def device(self, address: DeviceAddress) -> Device:
        found = self.devices.get(address)
        if found is None:
            raise UnknownDevice(str(address))
        return found

    def move_device(self, address: DeviceAddress, position: tuple[float, float]) -> None:
        device = self.device(address)
        device.position = (float(position[0]), float(position[1]))
        self._neighbours.clear()
        self.emit("move", device.address, x=device.position[0], y=device.position[1])
        for fn in self._medium_hooks:
            fn(device)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, at: SimTime, fn: Callable[[], None]) -> int:
        if at < self.now:
            raise SchedulingInPast(f"cannot schedule at {at}, now is {self.now}")
        event_id = self._next_seq
        self._next_seq += 1
        entry = [at, event_id, fn]
        self._entries[event_id] = entry
        heapq.heappush(self._heap, entry)
        return event_id

    def schedule_in(self, delay_us: int, fn: Callable[[], None]) -> int:
        return self.schedule(self.now + delay_us, fn)

    def reserve_ids(self, count: int) -> int:
        """Set aside ``count`` consecutive event ids; returns the first."""
        self._next_seq += count
        return self._next_seq - count

    def schedule_as(self, event_id: int, at: SimTime, fn: Callable[[], None]) -> int:
        """``schedule`` under a reserved id: the event fires, ties included,
        where it would have had it been scheduled when the id was reserved."""
        next_seq, self._next_seq = self._next_seq, event_id
        try:
            return self.schedule(at, fn)
        finally:
            self._next_seq = next_seq

    def fired(self, at: SimTime, event_id: int) -> bool:
        """Whether the event ``(at, event_id)`` comes before the one now firing
        in the total order; outside ``run_until``, whether ``at <= now``."""
        return (at, event_id) < (self.now, self._firing)

    def settle_limit(self) -> SimTime | float:
        """The time before which an event may settle later work inline: the
        earlier of the first queued event's time and the bound of the
        ``run_until`` now running. Outside ``run_until`` it allows nothing,
        since API calls between runs change inputs without queuing an event."""
        return min(self._heap[0][0], self._until) if self._heap else self._until

    def cancel(self, event_id: int) -> None:
        entry = self._entries.pop(event_id, None)
        if entry is not None:
            entry[2] = _CANCELLED

    def run_until(self, t: SimTime) -> None:
        """Process every event with time <= t in total order; now becomes t."""
        if t < self.now:
            raise SchedulingInPast(f"cannot run to {t}, now is {self.now}")
        self._until = t
        try:
            while self._heap and self._heap[0][0] <= t:
                at, event_id, fn = heapq.heappop(self._heap)
                self._entries.pop(event_id, None)
                if fn is _CANCELLED:
                    continue
                self.now = at
                self._firing = event_id
                fn()
        finally:
            self._firing = _IDLE
            self._until = -_IDLE
        self.now = t

    @property
    def pending_events(self) -> int:
        return sum(1 for e in self._heap if e[2] is not _CANCELLED)

    # -- trace --------------------------------------------------------------

    def emit(self, ev: str, dev: Optional[DeviceAddress], **detail) -> None:
        """Append event ``ev`` at ``now``, about the device at ``dev`` (None
        for none), with ``detail`` as its fields."""
        self.trace.append(self.now, ev, "" if dev is None else dev._text or str(dev), detail)

    # -- medium -------------------------------------------------------------

    def add_frame_handler(self, kind: FrameKind, fn: Callable) -> None:
        self._frame_handlers[kind].append(fn)

    def add_listen_provider(self, fn: Callable[[Device, SimTime], Iterable[int]]) -> None:
        self._listen_providers.append(fn)

    def add_medium_hook(self, fn: Callable[[Optional[Device]], None]) -> None:
        """Call ``fn(device)`` after ``move_device`` moves a device and
        ``fn(None)`` after ``medium`` is replaced."""
        self._medium_hooks.append(fn)

    def in_range(self, a: Device, b: Device) -> bool:
        dx = a.position[0] - b.position[0]
        dy = a.position[1] - b.position[1]
        limit = min(a.config.radio_range_m, b.config.radio_range_m)
        return dx * dx + dy * dy <= limit * limit

    def _neighbours_of(self, sender: Device) -> list[Device]:
        """The other devices in the sender's range, in registration order."""
        found = self._neighbours.get(sender)
        if found is None:
            found = self._neighbours[sender] = [
                d for d in self.devices.values() if d is not sender and self.in_range(sender, d)
            ]
        return found

    def broadcast(self, frame: RadioFrame, sender: Device) -> list[tuple[Device, SimTime]]:
        """Offer a frame to the medium; returns the deliveries it drew.

        An addressed frame has one candidate, its addressee (a link frame's
        is its link's other end), if registered, not the sender and in range;
        an unaddressed one has the sender's neighbour list. Range and
        frequency eligibility are evaluated now (transmit time); the loss
        draw happens per candidate in device registration order. A link
        frame skips the frequency check.
        A ``draw_only`` frame's deliveries are returned but not scheduled.
        A frequency index outside [0, FREQ_COUNT) raises ``ValueError``
        before anything is drawn.
        """
        if not 0 <= frame.freq_index < FREQ_COUNT:
            raise ValueError(f"freq_index out of [0,{FREQ_COUNT - 1}]: {frame.freq_index}")
        if sender.address not in self.devices:
            raise UnknownDevice(str(sender.address))
        if frame.to is None:
            candidates: Iterable[Device] = self._neighbours_of(sender)
        else:
            link = frame.link
            if link is None or (sender is not link.master and sender is not link.slave):
                addressee = self.devices.get(frame.to)
            else:  # the link's other end, by identity: the Device at frame.to
                addressee = link.slave if sender is link.master else link.master
            if addressee is None or addressee is sender or not self.in_range(sender, addressee):
                return []
            candidates = (addressee,)
        medium, now, freq = self._medium, self.now, frame.freq_index
        deliveries: list[tuple[Device, SimTime]] = []
        for receiver in candidates:
            if frame.link is None:
                for provider in self._listen_providers:
                    if freq in provider(receiver, now):
                        break
                else:
                    continue  # not listening on the frame's frequency
            if medium.loss_probability > 0.0 and self.rng.random() < medium.loss_probability:
                continue
            delay = medium.propagation_us
            if medium.jitter_us > 0:
                delay = max(1, delay + self.rng.randint(-medium.jitter_us, medium.jitter_us))
            deliver_at = now + delay
            if not frame.draw_only:
                self.schedule(deliver_at, self.delivery(frame, receiver))
            deliveries.append((receiver, deliver_at))
        return deliveries

    def delivery(self, frame: RadioFrame, receiver: Device) -> Callable[[], None]:
        """The event that hands ``frame`` to the receiver's frame handlers."""

        def run():
            for handler in self._frame_handlers[frame.kind]:
                handler(receiver, frame, self.now)

        return run


class Op:
    """Handle for one asynchronous operation, resolved while the engine runs.

    ``done`` turns true exactly once; ``result`` then holds the value of a
    success, or ``error`` the exception of a failure. ``on_complete``
    callbacks run at that moment, or at once when the op is already done.
    """

    __slots__ = ("result", "error", "done", "_callbacks")

    def __init__(self):
        self.result = None
        self.error: Optional[Exception] = None
        self.done = False
        self._callbacks: Optional[list[Callable[["Op"], None]]] = None

    @classmethod
    def resolved(cls, result) -> "Op":
        op = cls()
        op.resolve(result)
        return op

    def on_complete(self, fn: Callable[["Op"], None]) -> None:
        if self.done:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def resolve(self, result=None, error: Optional[Exception] = None) -> None:
        if self.done:
            return
        self.result = result
        self.error = error
        self.done = True
        callbacks, self._callbacks = self._callbacks, None
        for fn in callbacks or ():
            fn(self)


class Retry:
    """Send, resend every ``interval_us``, give up exactly at the deadline.

    The deadline is ``timeout_us`` after construction; ``start`` sends at
    once, or ``start(delay_us)`` first sends ``delay_us`` later. Each tick
    sends before it schedules the next one, and the last wait is clamped to
    the deadline, where ``on_timeout`` runs instead of a send. With
    ``timeout_us`` None the deadline is infinite: the retry resends until it
    is resolved. ``resolve`` stops the retry on an answer, or when its owner
    ends, and cancels its pending tick.
    """

    __slots__ = ("engine", "send", "interval_us", "on_timeout", "deadline_us", "done", "_timer")

    def __init__(
        self,
        engine: Engine,
        send: Callable[[], object],
        interval_us: int,
        timeout_us: Optional[int] = None,
        on_timeout: Optional[Callable[[], None]] = None,
    ):
        self.engine = engine
        self.send = send
        self.interval_us = interval_us
        self.deadline_us = float("inf") if timeout_us is None else engine.now + timeout_us
        self.on_timeout = on_timeout
        self.done = False
        self._timer = -1

    def start(self, delay_us: int = 0) -> "Retry":
        if delay_us:
            self._timer = self.engine.schedule_in(delay_us, self._tick)
        else:
            self._tick()
        return self

    def _tick(self) -> None:
        now = self.engine.now
        if now >= self.deadline_us:
            self.done = True
            self.on_timeout()
            return
        self.send()
        if not self.done:  # unless send resolved it
            next_at = min(now + self.interval_us, self.deadline_us)
            self._timer = self.engine.schedule(next_at, self._tick)

    def resolve(self) -> None:
        self.done = True
        self.engine.cancel(self._timer)

"""Deterministic discrete-event engine and the virtual radio medium.

One engine instance per simulation, single-threaded by contract. Events are
totally ordered by (time, event id). Ids follow scheduling order, except that
``reserve_ids`` sets ids aside for events that ``schedule_as`` queues later.
The same seed and the same scheduled inputs produce a byte-identical trace.
The queue is a heap of int keys ``at << 64 | event_id``, which order as
``(at, event_id)`` does; ``_entries`` maps each pending key to its callback.
``schedule`` returns the key and ``cancel`` drops it from ``_entries``, so a
cancelled key stays in the heap until it reaches the top and is skipped.

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
fixed 1 us propagation delay (plus optional uniform jitter). ``draw`` makes
these listen checks and draws, and ``broadcast`` schedules what it returns.
Work whose outcome is already known is skipped, though never a random draw:
a link frame skips the listen search, since its addressee listens on the
link's hop frequency by construction. Every delivery ``broadcast`` draws is
queued, a repeat inquiry response too, which discovery ignores on arrival. A
frame whose whole exchange is known is not sent at all: on a medium with no
loss and no jitter, where a link frame draws nothing, the link layer settles
a keepalive without frames (see ``hdpsim.link``), keeping its delivery's
event id from ``reserve_ids``. ``add_medium_hook`` reports each
``move_device`` and each replacement of ``medium``, and ``fired`` tells
whether the delivery's ``(t, id)`` has passed, so that a change that comes
first queues the real ``delivery`` under that id with ``schedule_as``.
Discovery settles a run of inquiry cycles in one event (see
``hdpsim.discovery``), drawing its frames' deliveries through ``draw``
without scheduling them; ``settle_limit`` bounds such a run by the first
queued event and the bound of the running ``run_until``, and outside
``run_until`` allows nothing, since API calls between runs queue no event.

Every protocol exchange that waits for an answer runs on one ``Retry``: it
sends at once, resends every interval, and fails exactly at its deadline,
the last wait being clamped to it. A ``Retry`` without a deadline resends
until it is resolved, and may then be started again: a reliable sender
keeps one and restarts it for each queue head. Every
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
    handlers take the link from the frame. Hot paths build frames with
    ``tuple.__new__``.
    """

    from_addr: DeviceAddress
    freq_index: int
    kind: FrameKind
    payload: bytes = b""
    to: Optional[DeviceAddress] = None
    link: Optional[Link] = None


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
    dict, keys in sorted order, and a newline. Every line is made here but
    the lines of ``TYPED_EVENTS``, which their ``TypedEvent`` templates make,
    byte for byte the same."""
    return '{"detail":%s,"dev":%s,"ev":%s,"seq":%d,"t_us":%d}\n' % (
        _encode_detail(detail), _encode_str(dev), _encode_str(ev), seq, t_us
    )


# The per-reading events: event -> its detail fields in sorted key order,
# each with its kind, int or bool. Emitted with ``Engine.emit_typed``, which
# takes the values in this order.
TYPED_EVENTS: dict[str, tuple[tuple[str, type], ...]] = {
    "mdl_send": (("bytes", int), ("mdl_id", int), ("retx", int), ("seq", int)),
    "mdl_rx": (("bytes", int), ("mdl_id", int), ("reliable", bool), ("seq", int)),
    "mdl_ack": (("mdl_id", int), ("seq", int)),
    "measurement_tx": (("assoc_id", int), ("seq", int)),
    "measurement_rx": (("assoc_id", int), ("seq", int), ("sink_timestamp_us", int)),
    "buffered": (("assoc_id", int), ("depth", int), ("seq", int)),
    "evicted": (("assoc_id", int), ("seq", int)),
}


class TypedEvent:
    """One ``TYPED_EVENTS`` entry with its line templates, built at import.

    A template is ``trace_line``'s text with ``%d`` for each int, ``%s`` for
    the device text (an address, which needs no escaping), the seq and the
    time. An event with a bool field (at most one) has a template for each
    value, indexed by it, whose ``%.0s`` takes the bool and prints nothing.
    """

    __slots__ = ("ev", "fields", "flag", "templates")

    def __init__(self, ev: str, fields: tuple[tuple[str, type], ...]):
        self.ev = ev
        self.fields = tuple(name for name, _kind in fields)
        flags = [i for i, (_name, kind) in enumerate(fields) if kind is bool]
        if len(flags) > 1:
            raise ValueError(f"{ev}: at most one bool field")
        self.flag = flags[0] if flags else None

        slots = {int: ("%d", "%d"), bool: ("false%.0s", "true%.0s")}  # by kind, then flag

        def template(flag: bool) -> str:
            detail = ",".join(_encode_str(name) + ":" + slots[kind][flag] for name, kind in fields)
            return '{"detail":{%s},"dev":"%%s","ev":%s,"seq":%%d,"t_us":%%d}\n' % (
                detail, _encode_str(ev)
            )

        self.templates = (template(False), template(True))

    def line(self, values: tuple, dev: str, seq: int, t_us: SimTime) -> str:
        """The event's trace line."""
        flag = self.flag
        return self.templates[0 if flag is None else values[flag]] % (*values, dev, seq, t_us)


TYPED = {ev: TypedEvent(ev, fields) for ev, fields in TYPED_EVENTS.items()}


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

    ``append`` checks the time, numbers the event and makes its line once,
    from a typed event's template (``typed`` given, ``detail`` its values in
    field order) or else with ``trace_line``. It writes the line to ``out``,
    a text file set before the first event, or else keeps it: ``to_jsonl``
    joins the kept lines, ``sha256`` hashes them, and ``events`` parses each
    into a ``TraceEvent`` on first read, its detail as the line reads (lists,
    not tuples). ``feed``, when set, receives ``(t_us, ev, dev, detail)`` of
    each event whose name is in ``feed_events``; ``len`` counts every event.
    """

    def __init__(self):
        self.out: Optional[TextIO] = None
        self.feed: Optional[Callable[[SimTime, str, str, dict | tuple], None]] = None
        self.feed_events: frozenset[str] = frozenset()
        self._lines: list[str] = []
        self._events: list[TraceEvent] = []  # _lines[:len(_events)], parsed
        self._count = 0
        self._last_t_us: SimTime = 0

    def append(
        self, t_us: SimTime, ev: str, dev: str, detail, typed: Optional[TypedEvent] = None
    ) -> None:
        if t_us < self._last_t_us:
            raise ValueError(f"trace time went backwards: {t_us} < {self._last_t_us}")
        seq = self._count
        self._count = seq + 1
        self._last_t_us = t_us
        line = (trace_line(t_us, seq, ev, dev, detail) if typed is None
                else typed.line(detail, dev, seq, t_us))
        out = self.out
        if out is None:
            self._lines.append(line)
        else:
            out.write(line)
        if ev in self.feed_events:
            self.feed(t_us, ev, dev, detail)

    @property
    def events(self) -> list[TraceEvent]:
        events = self._events
        events += (TraceEvent(**json.loads(line)) for line in self._lines[len(events):])
        return events

    def to_jsonl(self) -> str:
        return "".join(self._lines)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self.events)


# An event's key is ``at << _ID_BITS | event_id``: ordering keys orders
# events by time, then id.
_ID_BITS = 64
# The key of "the event now firing" outside run_until: every queued event at
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
        self._neighbours: dict[Device, list[Device]] = {}  # see neighbours
        self._heap: list[int] = []  # event keys, cancelled ones included
        self._next_seq = 0
        self._entries: dict[int, Callable[[], None]] = {}  # pending key -> callback
        self._firing: int | float = _IDLE  # the key now firing; see fired
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
        """Queue ``fn`` to run at ``at`` under the next event id; returns the
        event's key, ``at << 64 | event_id``, which ``cancel`` takes."""
        if at < self.now:
            raise SchedulingInPast(f"cannot schedule at {at}, now is {self.now}")
        key = at << _ID_BITS | self._next_seq
        self._next_seq += 1
        self._entries[key] = fn
        heapq.heappush(self._heap, key)
        return key

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
        if self._firing is _IDLE:
            return at <= self.now
        return (at << _ID_BITS | event_id) < self._firing

    def settle_limit(self) -> SimTime | float:
        """The time before which an event may settle later work inline: the
        earlier of the first queued event's time and the bound of the
        ``run_until`` now running. Outside ``run_until`` it allows nothing,
        since API calls between runs change inputs without queuing an event.
        A cancelled key at the top of the heap still bounds it."""
        return min(self._heap[0] >> _ID_BITS, self._until) if self._heap else self._until

    def cancel(self, key: int) -> None:
        """Drop the pending event ``key`` (as ``schedule`` returned it); a key
        that has fired, was cancelled or was never issued is ignored."""
        self._entries.pop(key, None)

    def run_until(self, t: SimTime) -> None:
        """Process every event with time <= t in total order; now becomes t."""
        if t < self.now:
            raise SchedulingInPast(f"cannot run to {t}, now is {self.now}")
        self._until = t
        heap, entries, pop = self._heap, self._entries, heapq.heappop
        limit = (t + 1) << _ID_BITS  # the first key past t
        try:
            while heap and heap[0] < limit:
                key = pop(heap)
                fn = entries.pop(key, None)
                if fn is None:  # cancelled
                    continue
                self.now = key >> _ID_BITS
                self._firing = key
                fn()
        finally:
            self._firing = _IDLE
            self._until = -_IDLE
        self.now = t

    @property
    def pending_events(self) -> int:
        return len(self._entries)

    # -- trace --------------------------------------------------------------

    def emit(self, ev: str, dev: Optional[DeviceAddress], **detail) -> None:
        """Append event ``ev`` at ``now``, about the device at ``dev`` (None
        for none), with ``detail`` as its fields."""
        self.trace.append(self.now, ev, "" if dev is None else dev._text or str(dev), detail)

    def emit_typed(self, typed: TypedEvent, dev: DeviceAddress, *values) -> None:
        """Append the typed event ``typed.ev`` at ``now``, about the device at
        ``dev``, with ``values`` its fields in ``typed.fields`` order."""
        self.trace.append(self.now, typed.ev, dev._text or str(dev), values, typed)

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

    def neighbours(self, sender: Device) -> list[Device]:
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
        an unaddressed one has the sender's neighbour list. Range is
        evaluated now (transmit time), and ``draw`` makes the listen checks
        and draws of the candidates in order; each delivery drawn is
        scheduled. A link frame sent by an end of its link skips the
        registration check. A frequency index outside [0, FREQ_COUNT)
        raises ``ValueError`` before anything is drawn.
        """
        if not 0 <= frame.freq_index < FREQ_COUNT:
            raise ValueError(f"freq_index out of [0,{FREQ_COUNT - 1}]: {frame.freq_index}")
        link = frame.link
        if link is not None and (sender is link.master or sender is link.slave):
            # A link's ends are registered; the addressee is the other end,
            # found by identity: the Device at frame.to.
            addressee = link.slave if sender is link.master else link.master
        elif sender.address not in self.devices:
            raise UnknownDevice(str(sender.address))
        elif frame.to is None:
            addressee = None
        else:
            addressee = self.devices.get(frame.to)
            if addressee is None or addressee is sender:
                return []
        if addressee is None:
            candidates: Iterable[Device] = self.neighbours(sender)
        elif self.in_range(sender, addressee):
            candidates = (addressee,)
        else:
            return []
        deliveries = self.draw(frame.freq_index, link, candidates, self.now)
        for receiver, deliver_at in deliveries:
            def run(receiver: Device = receiver) -> None:  # delivery's event, made inline
                for handler in self._frame_handlers[frame.kind]:
                    handler(receiver, frame, self.now)
            self.schedule(deliver_at, run)
        return deliveries

    def draw(
        self, freq: int, link: Optional[Link], candidates: Iterable[Device], t: SimTime
    ) -> list[tuple[Device, SimTime]]:
        """The ``(receiver, deliver_at)`` deliveries of a frame sent at ``t``
        on ``freq`` (on ``link``, if not None) to the candidates, in their
        order; nothing is scheduled. A candidate must listen on ``freq`` at
        ``t``, unless the frame is on a link, whose addressee listens on its
        hop frequency by construction; each one that does is dropped with the
        loss probability and otherwise lands after the propagation delay
        plus a jitter draw. As the medium's one delivery rule, it draws the
        first cycle of each stretch (between scan window changes) of a
        settled inquiry run of ``hdpsim.discovery``; the others take its loss
        rule alone if, at the first, every neighbour's scan hears every slot,
        every neighbour answers until the deadline and the inquirer hears
        the responses."""
        medium = self._medium
        loss, jitter = medium.loss_probability, medium.jitter_us
        deliveries: list[tuple[Device, SimTime]] = []
        for receiver in candidates:
            if link is None:
                for provider in self._listen_providers:
                    if freq in provider(receiver, t):
                        break
                else:
                    continue  # not listening on the frame's frequency
            if loss > 0.0 and self.rng.random() < loss:
                continue
            delay = medium.propagation_us
            if jitter > 0:
                delay = max(1, delay + self.rng.randint(-jitter, jitter))
            deliveries.append((receiver, t + delay))
        return deliveries

    def delivery(self, frame: RadioFrame, receiver: Device) -> Callable[[], None]:
        """The event that hands ``frame`` to the receiver's frame handlers;
        ``broadcast`` makes it inline for each delivery it draws."""

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

    ``done`` is false only while a run is live, from ``start`` to ``resolve``
    or the timeout. A finished retry may be started again, keeping its
    deadline, with one pending tick; starting a live one raises RuntimeError.
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
        self.done = True  # no run is live until start
        self._timer = -1  # the pending tick's event key

    def start(self, delay_us: int = 0) -> "Retry":
        if not self.done:
            raise RuntimeError("the retry is already running")
        self.done = False
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
        timer = self._timer
        self.send()
        if not self.done and self._timer == timer:  # unless send resolved or restarted it
            next_at = min(now + self.interval_us, self.deadline_us)
            self._timer = self.engine.schedule(next_at, self._tick)

    def resolve(self) -> None:
        self.done = True
        self.engine.cancel(self._timer)

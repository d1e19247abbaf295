"""Health profile layer: associations, typed measurements, source buffering.

A source device (the sensor) associates with a sink (the phone) over an
authenticated link's control channel: a three-message handshake carrying the
specialization, then a reliable data channel for measurements, then a clock
sync requested by the sink so it can place readings on its own timeline.
Measurements are specialization-typed with scaled-integer metric values and
a microsecond source timestamp; a heart-rate reading always carries heart
rate, filling duration, and ascending-wave index.

When the link drops, measurements submitted in the meantime go to a bounded
source-side buffer (oldest evicted on overflow) and flush in order once the
channel reconnects, ahead of any newer reading. Audio transport is refused
unconditionally, whatever the specialization.

A reading is scaled, checked, time-stamped and encoded when it is
submitted, and the profile keeps it as its wire bytes only while it is in
flight, in the source buffer or the channel queue; both hold the one engine
``Op`` that ``send_measurement`` returns, which resolves to a
``SendStatus``: DELIVERED on the sink's acknowledgement, EVICTED when the
full source buffer drops it, ABANDONED when the association ends first.
The sink reads the seq and timestamp from a frame's header; it decodes a
``Measurement`` only for a sink callback (``set_sink_callback``), which
sees each reading the sink receives. ``release`` settles the channel queue
by the sink's receive watermark on the channel.

An association owns its timers, and ``release`` stops them all. The
request runs on the engine's ``Retry``: resent every
``retransmit_interval_us``, given up exactly ``handshake_timeout_us`` after
it started. A request that times out or that the sink rejects emits
``assoc_failed`` (``reason`` ``"timeout"`` or ``"rejected"``), then goes
through ``release``: readings buffered meanwhile are abandoned and counted
in a ``released`` event. The record stays. Set-up then creates the channel
and syncs the clocks, one step at a time, each waiting on the ``Op`` the
channel layer returns; a failed step is taken again on a timer
``reconnect_retry_interval_us`` later. A lost link is re-paged on a second
``Retry`` every ``reconnect_retry_interval_us``, from one interval after the
loss until the link is restored.

A send series repeats one readings object, so each association keeps its
last readings with their packed metric entries, and a repeat packs only the
header: a series scales and checks its readings once, not per reading, even
when many associations interleave. Readings that fail raise before a seq is
taken and are not kept, so every error is raised again.
"""

from __future__ import annotations

import enum
import logging
import struct
from collections import deque, namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import DeviceAddress, SimTime
from .engine import TYPED, Device, Engine, Op, Retry
from .link import Link, LinkError, LinkManager, LinkState, PROTO_HDP
from .mcap import (
    ChannelState,
    ClockSyncResult,
    DataChannel,
    LinkDown,
    McapManager,
    SendStatus,
)
from .params import SimParams

log = logging.getLogger(__name__)


class HdpError(Exception):
    """Base for health-profile failures."""


class NoControlChannel(HdpError):
    """Association requires an open control channel between the pair."""


class AuthRequired(HdpError):
    """Association requires an authenticated link."""


class SpecializationRejected(HdpError):
    """The sink's whitelist does not admit this specialization."""


class AudioNotSupported(HdpError):
    """Audio transport is excluded, medical audio included."""


class AlreadyReleased(HdpError):
    """The association was already released."""


class Released(HdpError):
    """The association is released; no further measurements."""


class UnknownMetric(HdpError):
    """Metric name has no registered code."""


class InvalidMeasurement(HdpError):
    """Metric set or value violates the measurement rules."""


class ChannelKind(enum.Enum):
    DATA = "data"
    AUDIO = "audio"


def validate_channel_kind(kind: ChannelKind) -> None:
    """Admit data channels only; audio is never carried."""
    if kind is ChannelKind.AUDIO:
        raise AudioNotSupported("audio transport is not supported")


class Specialization(enum.Enum):
    HEART_RATE = 1
    BLOOD_PRESSURE = 2
    SCALE = 3
    GLUCOMETER = 4
    THERMOMETER = 5
    PULSE_OXIMETER = 6


# Metric registry: name -> (wire code, unit tag). Values travel as signed
# 32-bit integers scaled by 10.
METRICS: dict[str, tuple[int, str]] = {
    "heart_rate_bpm": (1, "bpm"),
    "filling_duration_ms": (2, "ms"),
    "ascending_wave_index_pct": (3, "percent"),
    "systolic_mmhg": (4, "mmHg"),
    "diastolic_mmhg": (5, "mmHg"),
    "mass_kg": (6, "kg"),
    "glucose_mmol_l": (7, "mmol/L"),
    "temperature_c": (8, "celsius"),
    "spo2_pct": (9, "percent"),
}

_METRIC_BY_CODE = {code: name for name, (code, _unit) in METRICS.items()}

HEART_RATE_METRICS = frozenset(
    {"heart_rate_bpm", "filling_duration_ms", "ascending_wave_index_pct"}
)

SCALE_FACTOR = 10
_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
_SEQ_MAX = 0xFFFFFFFF
_HEADER = struct.Struct(">IqBB")
_METRIC_ENTRY = struct.Struct(">Bi")


def scale_value(value: float) -> int:
    try:
        scaled = round(value * SCALE_FACTOR)
    except (ValueError, OverflowError):  # NaN, infinity
        raise InvalidMeasurement(f"value {value} is not finite") from None
    if not _I32_MIN <= scaled <= _I32_MAX:
        raise InvalidMeasurement(f"scaled value {scaled} exceeds 32-bit range")
    return int(scaled)


def _check_values(specialization: Specialization, values: tuple[tuple[str, int], ...]) -> None:
    if not values:
        raise InvalidMeasurement("a measurement needs at least one metric")
    names = set()
    for name, scaled in values:
        if name not in METRICS:
            raise UnknownMetric(name)
        if name in names:
            raise InvalidMeasurement(f"duplicate metric {name}")
        names.add(name)
        if not _I32_MIN <= scaled <= _I32_MAX:
            raise InvalidMeasurement(f"{name} value out of range")
    if specialization is Specialization.HEART_RATE and names != set(HEART_RATE_METRICS):
        raise InvalidMeasurement(
            "heart-rate readings carry exactly heart_rate_bpm, "
            "filling_duration_ms, ascending_wave_index_pct"
        )


def _entries(values: tuple[tuple[str, int], ...]) -> bytes:
    """The packed metric entries of scaled ``values``, ordered by code."""
    return b"".join(
        _METRIC_ENTRY.pack(code, scaled)
        for code, scaled in sorted((METRICS[name][0], scaled) for name, scaled in values)
    )


class Measurement(namedtuple("Measurement", "specialization seq source_timestamp_us values")):
    """One typed reading; ``values`` maps metric name to a x10-scaled int.

    An immutable tuple of its four fields, checked and then built in one
    ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(
        cls,
        specialization: Specialization,
        seq: int,
        source_timestamp_us: SimTime,
        values: tuple[tuple[str, int], ...],
    ) -> "Measurement":
        if not 0 <= seq <= _SEQ_MAX:
            raise InvalidMeasurement("seq must fit in 32 bits")
        _check_values(specialization, values)
        return tuple.__new__(cls, (specialization, seq, source_timestamp_us, values))

    @classmethod
    def build(
        cls,
        specialization: Specialization,
        seq: int,
        source_timestamp_us: SimTime,
        readings: dict[str, float],
    ) -> "Measurement":
        """Scale ``readings`` (name -> value) into a measurement."""
        values = tuple(sorted((name, scale_value(v)) for name, v in readings.items()))
        return cls(specialization, seq, source_timestamp_us, values)

    def value(self, name: str) -> float:
        for metric, scaled in self.values:
            if metric == name:
                return scaled / SCALE_FACTOR
        raise UnknownMetric(name)

    def unit(self, name: str) -> str:
        if name not in METRICS:
            raise UnknownMetric(name)
        return METRICS[name][1]

    def encode(self) -> bytes:
        """Fixed wire format, metrics ordered by code.

        4-byte big-endian seq, 8-byte big-endian source timestamp, 1-byte
        specialization code, 1-byte metric count, then per metric a 1-byte
        code and a 4-byte big-endian signed scaled value.
        """
        header = _HEADER.pack(
            self.seq, self.source_timestamp_us, self.specialization.value, len(self.values)
        )
        return header + _entries(self.values)

    @classmethod
    def decode(cls, raw: bytes) -> "Measurement":
        """Inverse of ``encode``."""
        seq, timestamp, spec_code, count = _HEADER.unpack_from(raw, 0)
        values = []
        for i in range(count):
            code, scaled = _METRIC_ENTRY.unpack_from(raw, _HEADER.size + i * _METRIC_ENTRY.size)
            if code not in _METRIC_BY_CODE:
                raise UnknownMetric(f"code {code}")
            values.append((_METRIC_BY_CODE[code], scaled))
        return cls(Specialization(spec_code), seq, timestamp, tuple(sorted(values)))


class AssocState(enum.Enum):
    ASSOCIATING = "associating"
    OPERATING = "operating"
    RELEASED = "released"


@dataclass
class Association:
    """Source-to-sink session for one specialization."""

    assoc_id: int
    source: Device
    sink: Device
    specialization: Specialization
    state: AssocState = AssocState.ASSOCIATING
    reliable_mdl: Optional[DataChannel] = None
    clock_map: Optional[ClockSyncResult] = None
    auto_reconnect: bool = True
    next_seq: int = 1
    # Readings waiting for the channel, each as (seq, wire bytes, its Op).
    buffer: deque[tuple[int, bytes, Op]] = field(default_factory=deque)
    # The last readings encoded, as (name, class, value) in order, with their
    # metric count and packed entries.
    last_readings: tuple = field(default=(None, 0, b""), init=False, repr=False, compare=False)
    # The pair's link: it exists before the association and is never replaced.
    link: Optional[Link] = field(default=None, repr=False, compare=False)
    # The link observer added by associate, and the timers: the request
    # until answered, the re-page while the link is lost, the pending retry
    # of a failed set-up step. release ends all.
    _on_link: Optional[Callable[[Link], None]] = field(default=None, init=False, repr=False)
    _request: Optional[Retry] = field(default=None, init=False, repr=False)
    _repage: Optional[Retry] = field(default=None, init=False, repr=False)
    _set_up_timer: int = field(default=-1, init=False, repr=False)


# Receives (association, decoded measurement, sink timestamp in us).
SinkCallback = Callable[[Association, Measurement, SimTime], None]

_MEASUREMENT_TX, _MEASUREMENT_RX = TYPED["measurement_tx"], TYPED["measurement_rx"]
_BUFFERED, _EVICTED = TYPED["buffered"], TYPED["evicted"]

_MSG_ASSOC_REQ = 1
_MSG_ASSOC_RSP = 2
_MSG_ASSOC_REJECT = 3
_MSG_ASSOC_CONFIRM = 4


class HdpManager:
    """Health-profile state for every device on one engine."""

    def __init__(
        self,
        engine: Engine,
        links: LinkManager,
        mcap: McapManager,
        params: SimParams,
    ):
        self.engine = engine
        self.links = links
        self.mcap = mcap
        self.params = params
        self.associations: dict[int, Association] = {}
        self._roles: dict[DeviceAddress, str] = {}
        self._whitelists: dict[DeviceAddress, frozenset[Specialization]] = {}
        self._sink_callbacks: dict[DeviceAddress, SinkCallback] = {}
        self._next_assoc_id = 1
        links.register_protocol(PROTO_HDP, self._on_pdu)

    # -- configuration ------------------------------------------------------

    def set_role(self, address: DeviceAddress, role: str) -> None:
        if role not in ("source", "sink"):
            raise ValueError("role must be 'source' or 'sink'")
        self._roles[address] = role

    def set_sink_whitelist(
        self, address: DeviceAddress, allowed: frozenset[Specialization] | set[Specialization]
    ) -> None:
        self._whitelists[address] = frozenset(allowed)

    def set_sink_callback(self, address: DeviceAddress, fn: SinkCallback) -> None:
        """Call ``fn(association, measurement, sink_timestamp_us)`` for every
        reading the sink at ``address`` receives, after its
        ``measurement_rx`` event; the simulator itself keeps no readings."""
        self._sink_callbacks[address] = fn

    # -- association --------------------------------------------------------

    def associate(
        self,
        source: Device,
        sink: Device,
        specialization: Specialization,
        auto_reconnect: bool = True,
    ) -> Association:
        """Start a source-to-sink session; Operating once handshake, channel
        creation, and clock sync all complete during the run.

        Raises immediately for preconditions that cannot heal on their own:
        an unauthenticated link, a missing control channel, a sink whose
        whitelist excludes the specialization, or misassigned roles.
        """
        link = self.links.link_between(source.address, sink.address)
        if link is None or link.link_key is None:
            raise AuthRequired(
                f"{source.address} and {sink.address} have no authenticated link"
            )
        if link.control is None:
            raise NoControlChannel(f"{source.address} <-> {sink.address}")
        role = self._roles.get(source.address)
        if role is not None and role != "source":
            raise HdpError(f"{source.address} is not a source")
        role = self._roles.get(sink.address)
        if role is not None and role != "sink":
            raise HdpError(f"{sink.address} is not a sink")
        allowed = self._whitelists.get(sink.address)
        if allowed is not None and specialization not in allowed:
            raise SpecializationRejected(
                f"{sink.address} does not accept {specialization.name}"
            )
        assoc = Association(
            assoc_id=self._next_assoc_id,
            source=source,
            sink=sink,
            specialization=specialization,
            auto_reconnect=auto_reconnect,
            link=link,
        )
        self._next_assoc_id += 1
        self.associations[assoc.assoc_id] = assoc
        assoc._on_link = lambda lk: self._on_link_state(assoc, lk)
        link.on_state_change(assoc._on_link)
        assoc._request = Retry(
            self.engine,
            lambda: self._tx(
                link,
                assoc.source,
                _MSG_ASSOC_REQ,
                struct.pack(">IB", assoc.assoc_id, specialization.value),
            ),
            self.params.retransmit_interval_us,
            self.params.handshake_timeout_us,
            lambda: self._give_up(assoc, "timeout"),
        ).start()
        return assoc

    def _give_up(self, assoc: Association, reason: str) -> None:
        """End an association whose request failed; the record stays."""
        self.engine.emit(
            "assoc_failed", assoc.source.address, assoc_id=assoc.assoc_id, reason=reason
        )
        self.release(assoc)

    def _tx(self, link: Link, sender: Device, msg: int, body: bytes) -> None:
        try:
            self.links.send_on_link(link, sender, PROTO_HDP, bytes([msg]) + body)
        except LinkError:
            pass  # a lost link carries nothing

    def _answered(self, assoc_id: int) -> Optional[Association]:
        """The association, if its request was unanswered until now."""
        assoc = self.associations[assoc_id]  # a source is answered only on ids it sent
        if assoc._request.done:
            return None
        assoc._request.resolve()
        return assoc

    # -- handshake handlers --------------------------------------------------

    def _on_pdu(
        self, link: Link, receiver: Device, from_addr: DeviceAddress, body: bytes, now: SimTime
    ) -> None:
        msg = body[0]  # every hdp PDU is _tx's: a message byte, then its body
        rest = body[1:]
        if msg == _MSG_ASSOC_REQ:
            self._on_assoc_req(receiver, rest)
        elif msg == _MSG_ASSOC_RSP:
            self._on_assoc_rsp(receiver, rest)
        elif msg == _MSG_ASSOC_REJECT:
            self._on_assoc_reject(receiver, rest)
        elif msg == _MSG_ASSOC_CONFIRM:
            pass  # sink treats the association as live from its response

    def _on_assoc_req(self, receiver: Device, body: bytes) -> None:
        # The request's association is registered (and records are never
        # removed) before it is sent, by its source on the link to its sink.
        assoc_id = struct.unpack(">I", body[:4])[0]
        assoc = self.associations[assoc_id]
        allowed = self._whitelists.get(receiver.address)
        rejected = allowed is not None and assoc.specialization not in allowed
        msg = _MSG_ASSOC_REJECT if rejected else _MSG_ASSOC_RSP
        self._tx(assoc.link, receiver, msg, struct.pack(">I", assoc_id))

    def _on_assoc_rsp(self, receiver: Device, body: bytes) -> None:
        assoc_id = struct.unpack(">I", body[:4])[0]
        assoc = self._answered(assoc_id)
        if assoc is None:
            return
        self._tx(assoc.link, assoc.source, _MSG_ASSOC_CONFIRM, struct.pack(">I", assoc_id))
        self._set_up(assoc)

    def _on_assoc_reject(self, receiver: Device, body: bytes) -> None:
        assoc = self._answered(struct.unpack(">I", body[:4])[0])
        if assoc is not None:
            self._give_up(assoc, "rejected")

    # -- channel and sync ----------------------------------------------------

    def _set_up(self, assoc: Association) -> None:
        """Take the next set-up step: the channel, then the clock sync. The
        association is associating: a step is taken on the answer to a live
        request, after a step done while associating, or by a retry timer
        that release cancels."""
        control = assoc.link.control
        try:
            if assoc.reliable_mdl is None:
                op = self.mcap.create_data_channel(control, assoc.source, reliable=True)
            else:
                # The sink requests, so the resulting offset maps source
                # clock readings onto the sink's timeline.
                op = self.mcap.sync_clocks(control, assoc.sink)
        except LinkDown as exc:
            op = Op()
            op.resolve(error=exc)
        op.on_complete(lambda o, a=assoc: self._set_up_done(a, o))

    def _set_up_done(self, assoc: Association, op: Op) -> None:
        if assoc.state is not AssocState.ASSOCIATING:  # released while the step ran
            if op.error is None and assoc.reliable_mdl is None:  # a channel release missed
                link_down = assoc.link.state is not LinkState.CONNECTED
                self.mcap.close_channel(op.result, assoc.source, abort=link_down)
            return
        if op.error is not None:
            # Not a Retry: its resends would not wait on the step's Op.
            assoc._set_up_timer = self.engine.schedule_in(
                self.params.reconnect_retry_interval_us, lambda: self._set_up(assoc)
            )
        elif assoc.reliable_mdl is None:
            channel: DataChannel = op.result
            assoc.reliable_mdl = channel
            channel.on_receive(self._measurement_receiver(assoc))
            self._set_up(assoc)
        else:
            assoc.clock_map = op.result
            assoc.state = AssocState.OPERATING
            self.engine.emit(
                "assoc",
                assoc.source.address,
                assoc_id=assoc.assoc_id,
                sink=str(assoc.sink.address),
                specialization=assoc.specialization.name.lower(),
                mdl_id=assoc.reliable_mdl.mdl_id,
            )
            log.debug("t=%d association %d operating", self.engine.now, assoc.assoc_id)
            # Anything submitted before the association finished goes out now.
            self._flush(assoc)

    # -- measurements --------------------------------------------------------

    def send_measurement(self, assoc: Association, readings: dict[str, float]) -> Op:
        """Submit one reading on an association.

        Returns the reading's ``Op``, which resolves to its SendStatus. The
        reading goes to the reliable channel when the link is up and to the
        source buffer when it is down; buffered readings flush in sequence
        order on reconnection, before anything newer. Seqs count 1, 2, 3...
        per association in the order readings are sent; a reading rejected
        as invalid takes none.
        """
        if assoc.state is AssocState.RELEASED:
            raise Released(f"association {assoc.assoc_id} is released")
        seq = assoc.next_seq
        source = assoc.source
        raw = self._encode(assoc, seq, self.engine.now + source.config.clock_offset_us, readings)
        assoc.next_seq = seq + 1
        op = Op()
        if (
            assoc.link.state is LinkState.CONNECTED
            and assoc.state is AssocState.OPERATING  # hence its channel is set
            and assoc.reliable_mdl.state is ChannelState.ACTIVE
            and not assoc.buffer
        ):
            self.mcap.send(assoc.reliable_mdl, source, raw, op)
            self.engine.emit_typed(_MEASUREMENT_TX, source.address, assoc.assoc_id, seq)
        else:
            self._buffer(assoc, seq, raw, op)
        return op

    def _encode(
        self, assoc: Association, seq: int, local_us: SimTime, readings: dict[str, float]
    ) -> bytes:
        """The bytes of ``Measurement.build(...).encode()``. A send series
        repeats one readings object, so a repeat of the association's last
        readings, name by name and of the same classes, packs only a header
        in front of their entries: a float and the Fraction of its exact
        value are equal but can round apart."""
        key = [(name, v.__class__, v) for name, v in readings.items()]
        if key != assoc.last_readings[0]:
            values = Measurement.build(assoc.specialization, seq, local_us, readings).values
            assoc.last_readings = (key, len(values), _entries(values))
        elif not 0 <= seq <= _SEQ_MAX:
            raise InvalidMeasurement("seq must fit in 32 bits")
        _key, count, entries = assoc.last_readings
        # _value_: the member's value as a plain attribute; .value is a property.
        return _HEADER.pack(seq, local_us, assoc.specialization._value_, count) + entries

    def _buffer(self, assoc: Association, seq: int, raw: bytes, op: Op) -> None:
        evicted = None
        if len(assoc.buffer) >= self.params.buffer_capacity:
            evicted_seq, _raw, evicted = assoc.buffer.popleft()
            self.engine.emit_typed(_EVICTED, assoc.source.address, assoc.assoc_id, evicted_seq)
        assoc.buffer.append((seq, raw, op))
        self.engine.emit_typed(
            _BUFFERED, assoc.source.address, assoc.assoc_id, len(assoc.buffer), seq
        )
        if evicted is not None:  # last, so its callbacks see the buffer as it is
            evicted.resolve(SendStatus.EVICTED)

    def _flush(self, assoc: Association) -> None:
        if assoc.state is AssocState.OPERATING and assoc.reliable_mdl.state is ChannelState.ACTIVE:
            while assoc.buffer:
                seq, raw, op = assoc.buffer.popleft()
                self.mcap.send(assoc.reliable_mdl, assoc.source, raw, op)
                self.engine.emit_typed(_MEASUREMENT_TX, assoc.source.address, assoc.assoc_id, seq)

    def _measurement_receiver(self, assoc: Association) -> Callable:
        """The receiver of ``assoc``'s channel, called with each payload the sink takes."""

        def received(ch: DataChannel, from_addr: DeviceAddress, payload: bytes, now: SimTime):
            if from_addr is not assoc.source.address and from_addr != assoc.source.address:
                return
            if assoc.state is AssocState.RELEASED:
                # Teardown is atomic for both ends; a frame still in flight at
                # release time was already settled as abandoned, so logging it
                # here would double-count it.
                return
            seq, source_ts, _spec, _count = _HEADER.unpack_from(payload)
            offset = assoc.clock_map.offset_us if assoc.clock_map is not None else 0
            sink_ts = source_ts - offset
            self.engine.emit_typed(
                _MEASUREMENT_RX, assoc.sink.address, assoc.assoc_id, seq, sink_ts
            )
            on_reading = self._sink_callbacks.get(assoc.sink.address)
            if on_reading is not None:
                on_reading(assoc, Measurement.decode(payload), sink_ts)

        return received

    # -- link loss and recovery ----------------------------------------------

    def _on_link_state(self, assoc: Association, link: Link) -> None:
        if assoc.state is AssocState.RELEASED:
            return
        if link.state is not LinkState.LOST:
            if assoc._repage is not None:
                assoc._repage.resolve()
            self._reconnect_channel(assoc)
        elif assoc.auto_reconnect:
            interval = self.params.reconnect_retry_interval_us
            assoc._repage = Retry(
                self.engine, lambda: self._page(link), interval
            ).start(interval)

    def _page(self, link: Link) -> None:
        try:
            self.links.page(link.master, link.slave.address)
        except LinkError:
            pass

    def _reconnect_channel(self, assoc: Association) -> None:
        """On a restored link: the link is up, and an active channel's op is
        resolved at once."""
        channel = assoc.reliable_mdl
        if channel is None or channel.state is ChannelState.CLOSED:
            return
        op = self.mcap.reconnect_data_channel(channel, assoc.source)
        op.on_complete(lambda o, a=assoc: self._flush(a) if o.error is None else None)

    # -- release -------------------------------------------------------------

    def release(self, assoc: Association) -> int:
        """End the association; returns how many readings were abandoned.

        Abandoned covers the source buffer and anything still queued
        unacknowledged in the reliable channel.
        """
        if assoc.state is AssocState.RELEASED:
            raise AlreadyReleased(f"association {assoc.assoc_id}")
        assoc.state = AssocState.RELEASED
        assoc._request.resolve()
        if assoc._repage is not None:
            assoc._repage.resolve()
        self.engine.cancel(assoc._set_up_timer)
        link = assoc.link
        link.off_state_change(assoc._on_link)
        abandoned = len(assoc.buffer)
        for _seq, _raw, op in assoc.buffer:
            op.resolve(SendStatus.ABANDONED)
        assoc.buffer.clear()
        channel = assoc.reliable_mdl
        if channel is not None and channel.state is not ChannelState.CLOSED:
            # Settle the channel queue now so nothing sends after release;
            # the sink's receive watermark tells which items arrived.
            abandoned += self.mcap.abandon_pending(channel, assoc.source)
            use_abort = link.state is not LinkState.CONNECTED
            self.mcap.close_channel(channel, assoc.source, abort=use_abort)
        self.engine.emit(
            "released",
            assoc.source.address,
            assoc_id=assoc.assoc_id,
            abandoned=abandoned,
        )
        log.debug("t=%d association %d released", self.engine.now, assoc.assoc_id)
        return abandoned

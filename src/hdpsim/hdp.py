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

The profile keeps a reading only while it is in flight, in the source
buffer or the channel queue. ``send_measurement`` returns the reading's
engine ``Op``, which resolves to a ``SendStatus``: DELIVERED on the sink's
acknowledgement, EVICTED when the full source buffer drops it, ABANDONED
when the association ends first. A sink callback (``set_sink_callback``)
sees each reading the sink receives. ``release`` settles the channel queue
by the sink's receive watermark on the channel.

The association request runs on the engine's ``Retry``: resent every
``retransmit_interval_us``, given up exactly ``handshake_timeout_us`` after
it started. A request that times out or that the sink rejects emits
``assoc_failed`` (``reason`` ``"timeout"`` or ``"rejected"``), then goes
through ``release``: readings buffered meanwhile are abandoned and counted
in a ``released`` event. The record stays. Channel creation and clock sync
wait on the engine ``Op`` handles that the channel layer returns.
"""

from __future__ import annotations

import enum
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import DeviceAddress, SimTime
from .engine import Device, Engine, Op, Retry
from .link import Link, LinkError, LinkManager, LinkState, PROTO_HDP, pair_key
from .mcap import (
    ChannelState,
    ClockSyncResult,
    DataChannel,
    LinkDown,
    McapError,
    McapManager,
    SendStatus,
)
from .params import SimParams


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
_HEADER = struct.Struct(">IqBB")
_METRIC_ENTRY = struct.Struct(">Bi")


def scale_value(value: float) -> int:
    scaled = round(value * SCALE_FACTOR)
    if not _I32_MIN <= scaled <= _I32_MAX:
        raise InvalidMeasurement(f"scaled value {scaled} exceeds 32-bit range")
    return int(scaled)


@dataclass(frozen=True)
class Measurement:
    """One typed reading; ``values`` maps metric name to a x10-scaled int."""

    specialization: Specialization
    seq: int
    source_timestamp_us: SimTime
    values: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not 0 <= self.seq <= 0xFFFFFFFF:
            raise InvalidMeasurement("seq must fit in 32 bits")
        if not self.values:
            raise InvalidMeasurement("a measurement needs at least one metric")
        names = set()
        for name, scaled in self.values:
            if name not in METRICS:
                raise UnknownMetric(name)
            if name in names:
                raise InvalidMeasurement(f"duplicate metric {name}")
            names.add(name)
            if not _I32_MIN <= scaled <= _I32_MAX:
                raise InvalidMeasurement(f"{name} value out of range")
        if self.specialization is Specialization.HEART_RATE and names != set(
            HEART_RATE_METRICS
        ):
            raise InvalidMeasurement(
                "heart-rate readings carry exactly heart_rate_bpm, "
                "filling_duration_ms, ascending_wave_index_pct"
            )

    @classmethod
    def build(
        cls,
        specialization: Specialization,
        seq: int,
        source_timestamp_us: SimTime,
        readings: dict[str, float],
    ) -> "Measurement":
        values = tuple(
            sorted((name, scale_value(v)) for name, v in readings.items())
        )
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
        entries = sorted((METRICS[name][0], scaled) for name, scaled in self.values)
        out = _HEADER.pack(
            self.seq,
            self.source_timestamp_us,
            self.specialization.value,
            len(entries),
        )
        for code, scaled in entries:
            out += _METRIC_ENTRY.pack(code, scaled)
        return out

    @classmethod
    def decode(cls, raw: bytes) -> "Measurement":
        seq, timestamp, spec_code, count = _HEADER.unpack_from(raw, 0)
        offset = _HEADER.size
        values = []
        for _ in range(count):
            code, scaled = _METRIC_ENTRY.unpack_from(raw, offset)
            offset += _METRIC_ENTRY.size
            name = _METRIC_BY_CODE.get(code)
            if name is None:
                raise UnknownMetric(f"code {code}")
            values.append((name, scaled))
        return cls(
            specialization=Specialization(spec_code),
            seq=seq,
            source_timestamp_us=timestamp,
            values=tuple(sorted(values)),
        )


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
    buffer: deque[tuple[Measurement, Op]] = field(default_factory=deque)
    buffer_capacity: int = 1024
    # The link observer added by associate, removed again by release.
    _on_link: Optional[Callable[[Link], None]] = field(default=None, init=False, repr=False)

    @property
    def pair(self) -> tuple[DeviceAddress, DeviceAddress]:
        return pair_key(self.source.address, self.sink.address)


# Receives (association, decoded measurement, sink timestamp in us).
SinkCallback = Callable[[Association, Measurement, SimTime], None]

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
        # assoc_id -> retry of its association request, until answered
        self._requests: dict[int, Retry] = {}
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
        if link is None or not link.authenticated:
            raise AuthRequired(
                f"{source.address} and {sink.address} have no authenticated link"
            )
        control = self.mcap.controls.get(pair_key(source.address, sink.address))
        if control is None:
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
            buffer_capacity=self.params.buffer_capacity,
        )
        self._next_assoc_id += 1
        self.associations[assoc.assoc_id] = assoc
        assoc._on_link = lambda lk: self._on_link_state(assoc, lk)
        link.on_state_change(assoc._on_link)
        self._requests[assoc.assoc_id] = Retry(
            self.engine,
            lambda: self._tx(
                assoc.source,
                assoc.sink,
                _MSG_ASSOC_REQ,
                struct.pack(">IB", assoc.assoc_id, specialization.value),
            ),
            self.params.retransmit_interval_us,
            self.params.handshake_timeout_us,
            lambda: self._request_timed_out(assoc),
        ).start()
        return assoc

    def _request_timed_out(self, assoc: Association) -> None:
        del self._requests[assoc.assoc_id]
        self._give_up(assoc, "timeout")

    def _give_up(self, assoc: Association, reason: str) -> None:
        """End an association whose request failed; the record stays."""
        if assoc.state is not AssocState.ASSOCIATING:
            return  # released while its request was unanswered
        self.engine.emit(
            "assoc_failed", assoc.source.address, assoc_id=assoc.assoc_id, reason=reason
        )
        self.release(assoc)

    def _tx(self, sender: Device, peer: Device, msg: int, body: bytes) -> bool:
        link = self.links.link_between(sender.address, peer.address)
        if link is None or link.state is not LinkState.CONNECTED:
            return False
        try:
            self.links.send_on_link(link, sender, PROTO_HDP, bytes([msg]) + body)
        except LinkError:
            return False
        return True

    def _answered(self, assoc_id: int) -> bool:
        retry = self._requests.pop(assoc_id, None)
        if retry is None:
            return False
        retry.resolve()
        return True

    # -- handshake handlers --------------------------------------------------

    def _on_pdu(
        self, link: Link, receiver: Device, from_addr: DeviceAddress, body: bytes, now: SimTime
    ) -> None:
        if not body:
            return
        msg = body[0]
        rest = body[1:]
        if msg == _MSG_ASSOC_REQ:
            self._on_assoc_req(receiver, from_addr, rest)
        elif msg == _MSG_ASSOC_RSP:
            self._on_assoc_rsp(receiver, rest)
        elif msg == _MSG_ASSOC_REJECT:
            self._on_assoc_reject(receiver, rest)
        elif msg == _MSG_ASSOC_CONFIRM:
            pass  # sink treats the association as live from its response

    def _on_assoc_req(
        self, receiver: Device, from_addr: DeviceAddress, body: bytes
    ) -> None:
        assoc_id, spec_code = struct.unpack(">IB", body[:5])
        assoc = self.associations.get(assoc_id)
        if assoc is None or assoc.sink.address != receiver.address:
            return
        allowed = self._whitelists.get(receiver.address)
        if allowed is not None and assoc.specialization not in allowed:
            self._tx(
                receiver,
                assoc.source,
                _MSG_ASSOC_REJECT,
                struct.pack(">I", assoc_id),
            )
            return
        self._tx(receiver, assoc.source, _MSG_ASSOC_RSP, struct.pack(">I", assoc_id))

    def _on_assoc_rsp(self, receiver: Device, body: bytes) -> None:
        assoc_id = struct.unpack(">I", body[:4])[0]
        if not self._answered(assoc_id):
            return
        assoc = self.associations.get(assoc_id)
        if assoc is None or assoc.state is not AssocState.ASSOCIATING:
            return
        self._tx(
            assoc.source, assoc.sink, _MSG_ASSOC_CONFIRM, struct.pack(">I", assoc_id)
        )
        self._create_channel(assoc)

    def _on_assoc_reject(self, receiver: Device, body: bytes) -> None:
        assoc_id = struct.unpack(">I", body[:4])[0]
        if self._answered(assoc_id):
            self._give_up(self.associations[assoc_id], "rejected")

    # -- channel and sync ----------------------------------------------------

    def _create_channel(self, assoc: Association) -> None:
        control = self.mcap.controls.get(assoc.pair)
        if control is None or assoc.state is not AssocState.ASSOCIATING:
            return
        try:
            op = self.mcap.create_data_channel(control, assoc.source, reliable=True)
        except LinkDown:
            self._retry_later(assoc, lambda: self._create_channel(assoc))
            return
        op.on_complete(lambda o, a=assoc: self._on_channel_ready(a, o))

    def _on_channel_ready(self, assoc: Association, op) -> None:
        if assoc.state is not AssocState.ASSOCIATING:
            return
        if op.error is not None:
            self._retry_later(assoc, lambda: self._create_channel(assoc))
            return
        channel: DataChannel = op.result
        assoc.reliable_mdl = channel
        channel.on_receive(
            lambda ch, from_addr, payload, now, a=assoc: self._on_measurement_frame(
                a, from_addr, payload, now
            )
        )
        self._start_sync(assoc)

    def _start_sync(self, assoc: Association) -> None:
        if assoc.state is not AssocState.ASSOCIATING:
            return
        control = self.mcap.controls.get(assoc.pair)
        if control is None:
            return
        try:
            # The sink requests, so the resulting offset maps source clock
            # readings onto the sink's timeline.
            op = self.mcap.sync_clocks(control, assoc.sink)
        except LinkDown:
            self._retry_later(assoc, lambda: self._start_sync(assoc))
            return
        op.on_complete(lambda o, a=assoc: self._on_sync_done(a, o))

    def _on_sync_done(self, assoc: Association, op) -> None:
        if assoc.state is not AssocState.ASSOCIATING:
            return
        if op.error is not None:
            self._retry_later(assoc, lambda: self._start_sync(assoc))
            return
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
        # Anything submitted before the association finished goes out now.
        self._flush(assoc)

    def _retry_later(self, assoc: Association, fn: Callable[[], None]) -> None:
        self.engine.schedule_in(
            self.params.reconnect_retry_interval_us,
            lambda: fn() if assoc.state is not AssocState.RELEASED else None,
        )

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
        measurement = Measurement.build(
            assoc.specialization,
            assoc.next_seq,
            assoc.source.local_time(self.engine.now),
            readings,
        )
        assoc.next_seq += 1
        op = Op()
        link = self.links.link_between(assoc.source.address, assoc.sink.address)
        link_up = link is not None and link.state is LinkState.CONNECTED
        if link_up and self._channel_up(assoc) and not assoc.buffer:
            self._transmit(assoc, measurement, op)
        else:
            self._buffer(assoc, measurement, op)
        return op

    def _channel_up(self, assoc: Association) -> bool:
        channel = assoc.reliable_mdl
        return (
            assoc.state is AssocState.OPERATING
            and channel is not None
            and channel.state is ChannelState.ACTIVE
        )

    def _transmit(self, assoc: Association, measurement: Measurement, op: Op) -> None:
        sent = self.mcap.send(assoc.reliable_mdl, assoc.source, measurement.encode())
        sent.on_complete(lambda done: op.resolve(done.result))
        self.engine.emit(
            "measurement_tx",
            assoc.source.address,
            assoc_id=assoc.assoc_id,
            seq=measurement.seq,
        )

    def _buffer(self, assoc: Association, measurement: Measurement, op: Op) -> None:
        evicted = None
        if len(assoc.buffer) >= assoc.buffer_capacity:
            evicted_m, evicted = assoc.buffer.popleft()
            self.engine.emit(
                "evicted",
                assoc.source.address,
                assoc_id=assoc.assoc_id,
                seq=evicted_m.seq,
            )
        assoc.buffer.append((measurement, op))
        self.engine.emit(
            "buffered",
            assoc.source.address,
            assoc_id=assoc.assoc_id,
            seq=measurement.seq,
            depth=len(assoc.buffer),
        )
        if evicted is not None:  # last, so its callbacks see the buffer as it is
            evicted.resolve(SendStatus.EVICTED)

    def _flush(self, assoc: Association) -> None:
        if self._channel_up(assoc):
            while assoc.buffer:
                self._transmit(assoc, *assoc.buffer.popleft())

    def _on_measurement_frame(
        self, assoc: Association, from_addr: DeviceAddress, payload: bytes, now: SimTime
    ) -> None:
        if from_addr != assoc.source.address:
            return
        if assoc.state is AssocState.RELEASED:
            # Teardown is atomic for both ends; a frame still in flight at
            # release time was already settled as abandoned, so logging it
            # here would double-count it.
            return
        measurement = Measurement.decode(payload)
        offset = assoc.clock_map.offset_us if assoc.clock_map is not None else 0
        sink_ts = measurement.source_timestamp_us - offset
        self.engine.emit(
            "measurement_rx",
            assoc.sink.address,
            assoc_id=assoc.assoc_id,
            seq=measurement.seq,
            sink_timestamp_us=sink_ts,
        )
        on_reading = self._sink_callbacks.get(assoc.sink.address)
        if on_reading is not None:
            on_reading(assoc, measurement, sink_ts)

    # -- link loss and recovery ----------------------------------------------

    def _on_link_state(self, assoc: Association, link: Link) -> None:
        if assoc.state is AssocState.RELEASED:
            return
        if link.state is LinkState.LOST:
            if assoc.auto_reconnect:
                self.engine.schedule_in(
                    self.params.reconnect_retry_interval_us,
                    lambda: self._try_repage(assoc, link),
                )
        else:
            self._reconnect_channel(assoc)

    def _try_repage(self, assoc: Association, link: Link) -> None:
        if assoc.state is AssocState.RELEASED or link.state is LinkState.CONNECTED:
            return
        try:
            self.links.page(link.master, link.slave.address)
        except LinkError:
            pass
        self.engine.schedule_in(
            self.params.reconnect_retry_interval_us,
            lambda: self._try_repage(assoc, link),
        )

    def _reconnect_channel(self, assoc: Association) -> None:
        channel = assoc.reliable_mdl
        if channel is None or assoc.state is AssocState.RELEASED:
            return
        if channel.state is ChannelState.ACTIVE:
            self._flush(assoc)
            return
        if channel.state is ChannelState.CLOSED:
            return
        try:
            op = self.mcap.reconnect_data_channel(channel, assoc.source)
        except McapError:
            return
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
        link = self.links.link_between(assoc.source.address, assoc.sink.address)
        link.off_state_change(assoc._on_link)
        abandoned = len(assoc.buffer)
        for _measurement, op in assoc.buffer:
            op.resolve(SendStatus.ABANDONED)
        assoc.buffer.clear()
        channel = assoc.reliable_mdl
        if channel is not None and channel.state is not ChannelState.CLOSED:
            # Settle the channel queue now so nothing sends after release.
            # Queued items carry channel seqs, which skip evicted readings,
            # so the sink's receive watermark on the channel tells which
            # of them arrived.
            received = channel.rx_last.get(assoc.source.address, 0)
            abandoned += self.mcap.abandon_pending(
                channel, assoc.source.address, range(1, received + 1)
            )
            use_abort = link.state is not LinkState.CONNECTED
            self.mcap.close_channel(channel, assoc.source, abort=use_abort)
        self.engine.emit(
            "released",
            assoc.source.address,
            assoc_id=assoc.assoc_id,
            abandoned=abandoned,
        )
        return abandoned

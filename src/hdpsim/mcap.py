"""Channel management over links: data channel lifecycle, delivery, clock sync.

One control channel exists per device pair, multiplexing any number of data
channels, each identified by an id that is never reused within the pair. A
full creation handshake costs four control messages; reconnecting a channel
that survived a link loss costs exactly two, which is what makes recovery
cheap. Data channels are reliable (stop-and-wait retransmission, exactly
once delivery, queue preserved across link loss) or streaming (single
attempt, dropped on loss, never queued). The control channel also provides
two-way clock sampling from which the requester estimates the peer's clock
offset with a bounded error.

Payloads on an authenticated link are enciphered with the link key and the
transmit clock; the clock rides in the data header so the receiver can
compute the same keystream.

Each control exchange runs on the engine's ``Retry``: the request is resent
every ``retransmit_interval_us`` and the exchange fails with
``McapTimeout`` exactly ``handshake_timeout_us`` after it started (clock
sampling sends once and fails with ``SyncTimeout`` after
``sync_timeout_us``). One table holds the pending exchanges; each entry
carries the continuation that runs when the answer arrives, and a repeated
reconnect or delete of a channel joins the exchange in flight. Channel
operations return an engine ``Op``: ``result`` is the ``DataChannel`` or the
``ClockSyncResult``, ``error`` the ``McapError``. A payload ``send`` returns
one too, whose ``result`` is the payload's ``SendStatus``.
"""

from __future__ import annotations

import enum
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Container

from .core import DeviceAddress, SimTime
from .engine import Device, Engine, Op, Retry
from .link import Link, LinkError, LinkManager, LinkState, PROTO_MCAP, pair_key
from .params import SimParams
from .security import NotAuthenticated, apply_cipher


class McapError(Exception):
    """Base for channel-management failures."""


class LinkDown(McapError):
    """The operation needs a live link."""


class ChannelClosed(McapError):
    """The data channel has been deleted."""


class McapTimeout(McapError):
    """A control exchange got no response within its deadline."""


class SyncTimeout(McapTimeout):
    """Clock sampling got no response within its deadline."""


_OP_CREATE_REQ = 1
_OP_CREATE_ACCEPT = 2
_OP_CREATE_CONFIG = 3
_OP_CREATE_CONFIRM = 4
_OP_RECONNECT_REQ = 5
_OP_RECONNECT_ACCEPT = 6
_OP_DELETE_REQ = 7
_OP_DELETE_ACK = 8
_OP_ABORT = 9
_OP_DATA = 10
_OP_DATA_ACK = 11
_OP_SYNC_REQ = 12
_OP_SYNC_RSP = 13

_OP_NAMES = {
    _OP_CREATE_REQ: "create_req",
    _OP_CREATE_ACCEPT: "create_accept",
    _OP_CREATE_CONFIG: "create_config",
    _OP_CREATE_CONFIRM: "create_confirm",
    _OP_RECONNECT_REQ: "reconnect_req",
    _OP_RECONNECT_ACCEPT: "reconnect_accept",
    _OP_DELETE_REQ: "delete_req",
    _OP_DELETE_ACK: "delete_ack",
    _OP_ABORT: "abort",
}

# Answer opcode -> the kind of exchange it completes, keyed by its mdl id.
_ANSWERS = {
    _OP_CREATE_ACCEPT: "create",
    _OP_CREATE_CONFIRM: "config",
    _OP_RECONNECT_ACCEPT: "reconnect",
    _OP_DELETE_ACK: "delete",
}

_DATA_HEADER = struct.Struct(">HIBq")
_FLAG_RELIABLE = 1
_FLAG_ENCRYPTED = 2


class ChannelState(enum.Enum):
    ACTIVE = "active"
    # The link dropped underneath the channel; state and queue are kept for
    # the two-message reconnect.
    SUSPENDED = "suspended"
    CLOSED = "closed"


class SendStatus(enum.Enum):
    """The fate a payload's or a reading's ``Op`` resolves to."""

    DELIVERED = "delivered"
    DROPPED = "dropped"
    EVICTED = "evicted"
    ABANDONED = "abandoned"


@dataclass
class _QueuedItem:
    seq: int
    payload: bytes
    op: Op
    attempts: int = 0


@dataclass
class ClockSyncResult:
    """Requester's estimate of the peer clock relative to its own."""

    offset_us: int
    accuracy_us: int
    rtt_us: int


@dataclass
class DataChannel:
    """One logical data pipe between a pair; shared by both endpoints."""

    control: "ControlChannel"
    mdl_id: int
    reliable: bool
    state: ChannelState = ChannelState.ACTIVE
    tx_seq: dict[DeviceAddress, int] = field(default_factory=dict)
    rx_last: dict[DeviceAddress, int] = field(default_factory=dict)
    queue: dict[DeviceAddress, deque] = field(default_factory=dict)
    in_flight: dict[DeviceAddress, bool] = field(default_factory=dict)
    _retx_timers: dict[DeviceAddress, int] = field(default_factory=dict)
    _receivers: list[Callable] = field(default_factory=list)

    def on_receive(self, fn: Callable[["DataChannel", DeviceAddress, bytes, SimTime], None]) -> None:
        self._receivers.append(fn)

    def pending_count(self, sender: DeviceAddress) -> int:
        return len(self.queue.get(sender, ()))


@dataclass
class ControlChannel:
    """Per-pair control plane owning the data channel id space."""

    link: Link
    next_mdl_id: int = 1
    next_token: int = 1
    channels: dict[int, DataChannel] = field(default_factory=dict)

    @property
    def pair(self) -> tuple[DeviceAddress, DeviceAddress]:
        return self.link.pair


class McapManager:
    """Channel management state for every pair on one engine."""

    def __init__(self, engine: Engine, links: LinkManager, params: SimParams):
        self.engine = engine
        self.links = links
        self.params = params
        self.controls: dict[tuple[DeviceAddress, DeviceAddress], ControlChannel] = {}
        # (pair, kind, id) -> (retry, continuation run on the answer, op)
        self._pending: dict[tuple, tuple[Retry, Callable, Op]] = {}
        links.register_protocol(PROTO_MCAP, self._on_pdu)

    # -- control channel ----------------------------------------------------

    def open_control_channel(self, a: Device, b: Device) -> ControlChannel:
        """Get or create the single control channel between two devices.

        Requires a live, authenticated link between them.
        """
        key = pair_key(a.address, b.address)
        existing = self.controls.get(key)
        if existing is not None:
            return existing
        link = self.links.link_between(a.address, b.address)
        if link is None or link.state is not LinkState.CONNECTED:
            raise LinkDown(f"no live link between {a.address} and {b.address}")
        if not link.authenticated:
            raise NotAuthenticated(f"link {a.address}<->{b.address} is not authenticated")
        control = ControlChannel(link=link)
        self.controls[key] = control
        link.on_state_change(lambda lk, c=control: self._on_link_state(c, lk))
        self.engine.emit("control_open", a.address, peer=str(b.address))
        return control

    def _on_link_state(self, control: ControlChannel, link: Link) -> None:
        if link.state is LinkState.LOST:
            for channel in control.channels.values():
                if channel.state is ChannelState.ACTIVE:
                    channel.state = ChannelState.SUSPENDED
                    self._halt_retx(channel)
                    self.engine.emit(
                        "mdl_suspended",
                        link.master.address,
                        mdl_id=channel.mdl_id,
                    )

    def _halt_retx(self, channel: DataChannel) -> None:
        for addr, timer in channel._retx_timers.items():
            self.engine.cancel(timer)
        channel._retx_timers.clear()
        for addr in channel.in_flight:
            channel.in_flight[addr] = False

    # -- wire helpers -------------------------------------------------------

    def _tx(self, control: ControlChannel, sender: Device, opcode: int, body: bytes) -> bool:
        try:
            self.links.send_on_link(
                control.link, sender, PROTO_MCAP, bytes([opcode]) + body
            )
        except LinkError:
            return False
        name = _OP_NAMES.get(opcode)
        if name is not None:
            mdl_id = struct.unpack(">H", body[:2])[0] if len(body) >= 2 else 0
            self.engine.emit("mcap_tx", sender.address, op=name, mdl_id=mdl_id)
        return True

    # -- exchange machinery -------------------------------------------------

    def _exchange(
        self,
        key: tuple,
        op: Op,
        send: Callable[[], object],
        on_answer: Callable,
        on_timeout: Callable[[], None],
        interval_us: int,
        timeout_us: int,
    ) -> Op:
        """Retry ``send`` until ``_answered(key)`` or the deadline.

        Returns ``op``, or, when ``key`` is already pending, the op of that
        exchange: a repeated request joins the one in flight.
        """
        pending = self._pending.get(key)
        if pending is not None:
            return pending[2]

        def expire() -> None:
            del self._pending[key]
            on_timeout()

        retry = Retry(self.engine, send, interval_us, timeout_us, expire)
        self._pending[key] = (retry, on_answer, op)
        retry.start()
        return op

    def _answered(self, key: tuple, *answer) -> None:
        entry = self._pending.pop(key, None)
        if entry is not None:
            retry, on_answer, _op = entry
            retry.resolve()
            on_answer(*answer)

    # -- data channel creation ----------------------------------------------

    def create_data_channel(
        self, control: ControlChannel, initiator: Device, reliable: bool
    ) -> Op:
        """Four-message handshake yielding a new data channel.

        The id is taken from the pair's counter before the first message,
        so even a failed attempt permanently consumes it.
        """
        if control.link.state is not LinkState.CONNECTED:
            raise LinkDown("cannot create a channel while the link is down")
        peer = control.link.peer_of(initiator.address)
        mdl_id = control.next_mdl_id
        control.next_mdl_id += 1
        op = Op()
        flags = _FLAG_RELIABLE if reliable else 0
        req = struct.pack(">HB", mdl_id, flags)
        mdl = struct.pack(">H", mdl_id)
        key = (control.pair, "create", mdl_id)
        config_key = (control.pair, "config", mdl_id)

        def confirmed() -> None:
            channel = control.channels.get(mdl_id)
            if channel is None:
                channel = DataChannel(control=control, mdl_id=mdl_id, reliable=reliable)
                control.channels[mdl_id] = channel
            self.engine.emit(
                "mdl_create",
                initiator.address,
                mdl_id=mdl_id,
                reliable=reliable,
                peer=str(peer.address),
            )
            op.resolve(channel)

        def accepted() -> None:
            self._exchange(
                config_key,
                op,
                lambda: self._tx(control, initiator, _OP_CREATE_CONFIG, mdl),
                confirmed,
                lambda: op.resolve(error=McapTimeout(str(config_key))),
                self.params.retransmit_interval_us,
                self.params.handshake_timeout_us,
            )

        return self._exchange(
            key,
            op,
            lambda: self._tx(control, initiator, _OP_CREATE_REQ, req),
            accepted,
            lambda: op.resolve(error=McapTimeout(str(key))),
            self.params.retransmit_interval_us,
            self.params.handshake_timeout_us,
        )

    def _on_create_req(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        mdl_id, flags = struct.unpack(">HB", body[:3])
        channel = control.channels.get(mdl_id)
        if channel is None:
            channel = DataChannel(
                control=control, mdl_id=mdl_id, reliable=bool(flags & _FLAG_RELIABLE)
            )
            control.channels[mdl_id] = channel
            if mdl_id >= control.next_mdl_id:
                control.next_mdl_id = mdl_id + 1
        self._tx(control, receiver, _OP_CREATE_ACCEPT, struct.pack(">H", mdl_id))

    def _on_create_config(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        mdl_id = struct.unpack(">H", body[:2])[0]
        channel = control.channels.get(mdl_id)
        if channel is None:
            return
        self._tx(control, receiver, _OP_CREATE_CONFIRM, struct.pack(">H", mdl_id))

    # -- reconnect ----------------------------------------------------------

    def reconnect_data_channel(self, channel: DataChannel, initiator: Device) -> Op:
        """Two-message handshake rebinding a suspended channel to its link."""
        control = channel.control
        if channel.state is ChannelState.CLOSED:
            raise ChannelClosed(f"mdl {channel.mdl_id} is closed")
        if control.link.state is not LinkState.CONNECTED:
            raise LinkDown("cannot reconnect a channel while the link is down")
        if channel.state is ChannelState.ACTIVE:
            return Op.resolved(channel)
        op = Op()
        mdl_id = channel.mdl_id
        key = (control.pair, "reconnect", mdl_id)

        def complete() -> None:
            channel.state = ChannelState.ACTIVE
            self.engine.emit(
                "mdl_reconnect",
                initiator.address,
                mdl_id=mdl_id,
                pending=channel.pending_count(initiator.address),
            )
            op.resolve(channel)
            self._pump(channel, initiator)

        return self._exchange(
            key,
            op,
            lambda: self._tx(
                control, initiator, _OP_RECONNECT_REQ, struct.pack(">H", mdl_id)
            ),
            complete,
            lambda: op.resolve(error=McapTimeout(str(key))),
            self.params.retransmit_interval_us,
            self.params.handshake_timeout_us,
        )

    def _on_reconnect_req(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        mdl_id = struct.unpack(">H", body[:2])[0]
        channel = control.channels.get(mdl_id)
        if channel is None or channel.state is ChannelState.CLOSED:
            return
        if channel.state is ChannelState.SUSPENDED:
            channel.state = ChannelState.ACTIVE
        self._tx(control, receiver, _OP_RECONNECT_ACCEPT, struct.pack(">H", mdl_id))
        self._pump(channel, receiver)

    # -- close --------------------------------------------------------------

    def close_channel(
        self, channel: DataChannel, initiator: Device, abort: bool = False
    ) -> Op:
        """Delete a channel; ``abort`` tears it down without waiting.

        Undelivered queued payloads are abandoned on both sides.
        """
        control = channel.control
        if channel.state is ChannelState.CLOSED:
            return Op.resolved(channel)
        mdl_id = channel.mdl_id
        if abort:
            if control.link.state is LinkState.CONNECTED:
                self._tx(control, initiator, _OP_ABORT, struct.pack(">H", mdl_id))
            self._close_local(channel, initiator.address, "abort")
            return Op.resolved(channel)
        op = Op()
        key = (control.pair, "delete", mdl_id)

        def complete() -> None:
            self._close_local(channel, initiator.address, "delete")
            op.resolve(channel)

        return self._exchange(
            key,
            op,
            lambda: self._tx(
                control, initiator, _OP_DELETE_REQ, struct.pack(">H", mdl_id)
            ),
            complete,
            lambda: op.resolve(error=McapTimeout(str(key))),
            self.params.retransmit_interval_us,
            self.params.handshake_timeout_us,
        )

    def abandon_pending(
        self,
        channel: DataChannel,
        sender: DeviceAddress,
        delivered_seqs: Container[int],
    ) -> int:
        """Settle a sender's queue without transmitting further.

        Items whose channel seq is in ``delivered_seqs`` are marked delivered
        (the peer already has them); the rest are abandoned. Returns the
        abandoned count.
        """
        items = channel.queue.pop(sender, ())
        channel.in_flight[sender] = False
        self.engine.cancel(channel._retx_timers.pop(sender, -1))
        abandoned = 0
        for item in items:
            if item.seq in delivered_seqs:
                item.op.resolve(SendStatus.DELIVERED)
            else:
                item.op.resolve(SendStatus.ABANDONED)
                abandoned += 1
        return abandoned

    def _close_local(self, channel: DataChannel, by: DeviceAddress, mode: str) -> None:
        if channel.state is ChannelState.CLOSED:
            return
        channel.state = ChannelState.CLOSED
        self._halt_retx(channel)
        items = [item for queue in channel.queue.values() for item in queue]
        channel.queue.clear()
        self.engine.emit(
            "mdl_close", by, mdl_id=channel.mdl_id, mode=mode, abandoned=len(items)
        )
        for item in items:
            item.op.resolve(SendStatus.ABANDONED)

    def _on_delete_req(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        mdl_id = struct.unpack(">H", body[:2])[0]
        channel = control.channels.get(mdl_id)
        if channel is not None:
            self._close_local(channel, receiver.address, "delete")
        self._tx(control, receiver, _OP_DELETE_ACK, struct.pack(">H", mdl_id))

    def _on_abort(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        mdl_id = struct.unpack(">H", body[:2])[0]
        channel = control.channels.get(mdl_id)
        if channel is not None:
            self._close_local(channel, receiver.address, "abort")

    # -- data plane ---------------------------------------------------------

    def send(self, channel: DataChannel, sender: Device, payload: bytes) -> Op:
        """Submit one payload; the returned ``Op`` resolves to its SendStatus.

        Reliable channels queue and retransmit until the peer acknowledges,
        surviving link loss: the op stays pending while the payload is
        queued, and resolves to DELIVERED on its ack or to ABANDONED when the
        queue is settled or the channel closes. Streaming channels transmit
        once, immediately, and return an op already resolved to DELIVERED,
        or to DROPPED when the medium or link does not carry the frame.
        The channel seq of a sender's payloads counts 1, 2, 3... in the order
        they are sent.
        """
        control = channel.control
        if channel.state is ChannelState.CLOSED:
            raise ChannelClosed(f"mdl {channel.mdl_id} is closed")
        if sender.address not in control.pair:
            raise McapError(f"{sender.address} is not an endpoint")
        limit = control.link.params.page_size_bytes
        if len(payload) > limit:
            raise McapError(f"payload of {len(payload)} bytes exceeds page size {limit}")
        seq = channel.tx_seq.get(sender.address, 0) + 1
        channel.tx_seq[sender.address] = seq
        if channel.reliable:
            op = Op()
            queue = channel.queue.setdefault(sender.address, deque())
            queue.append(_QueuedItem(seq=seq, payload=payload, op=op))
            self._pump(channel, sender)
            return op
        if (
            channel.state is ChannelState.SUSPENDED
            or control.link.state is not LinkState.CONNECTED
        ):
            reason = "link_down"
        elif self._tx_data(channel, sender, seq, payload, attempts=0):
            return Op.resolved(SendStatus.DELIVERED)
        else:
            reason = "loss"
        self.engine.emit(
            "mdl_drop", sender.address, mdl_id=channel.mdl_id, seq=seq, reason=reason
        )
        return Op.resolved(SendStatus.DROPPED)

    def _tx_data(
        self, channel: DataChannel, sender: Device, seq: int, payload: bytes, attempts: int
    ) -> bool:
        control = channel.control
        link = control.link
        flags = _FLAG_RELIABLE if channel.reliable else 0
        clock = self.engine.now
        body = payload
        if link.authenticated and link.link_key is not None:
            body = apply_cipher(link.link_key, clock, payload)
            flags |= _FLAG_ENCRYPTED
        header = _DATA_HEADER.pack(channel.mdl_id, seq, flags, clock)
        try:
            deliveries = self.links.send_on_link(
                link, sender, PROTO_MCAP, bytes([_OP_DATA]) + header + body
            )
        except LinkError:
            return False
        self.engine.emit(
            "mdl_send",
            sender.address,
            mdl_id=channel.mdl_id,
            seq=seq,
            retx=attempts,
            bytes=len(payload),
        )
        return bool(deliveries)

    def _pump(self, channel: DataChannel, sender: Device) -> None:
        addr = sender.address
        if channel.state is not ChannelState.ACTIVE:
            return
        if channel.in_flight.get(addr):
            return
        queue = channel.queue.get(addr)
        if not queue:
            return
        item = queue[0]
        self._tx_data(channel, sender, item.seq, item.payload, item.attempts)
        item.attempts += 1
        channel.in_flight[addr] = True
        self._arm_retx(channel, sender)

    def _arm_retx(self, channel: DataChannel, sender: Device) -> None:
        addr = sender.address
        channel._retx_timers[addr] = self.engine.schedule_in(
            self.params.retransmit_interval_us,
            lambda: self._retx_tick(channel, sender),
        )

    def _retx_tick(self, channel: DataChannel, sender: Device) -> None:
        """Resend the unacknowledged head of the queue, if any."""
        if channel.state is ChannelState.ACTIVE and channel.in_flight.get(sender.address):
            channel.in_flight[sender.address] = False
            self._pump(channel, sender)

    def _on_data(
        self, control: ControlChannel, receiver: Device, from_addr: DeviceAddress, body: bytes, now: SimTime
    ) -> None:
        mdl_id, seq, flags, clock = _DATA_HEADER.unpack_from(body, 0)
        channel = control.channels.get(mdl_id)
        if channel is None or channel.state is ChannelState.CLOSED:
            return
        payload = body[_DATA_HEADER.size :]
        link = control.link
        if flags & _FLAG_ENCRYPTED:
            if link.link_key is None:
                return
            payload = apply_cipher(link.link_key, clock, payload)
        if flags & _FLAG_RELIABLE:
            last = channel.rx_last.get(from_addr, 0)
            if seq <= last:
                self._tx(
                    control, receiver, _OP_DATA_ACK, struct.pack(">HI", mdl_id, seq)
                )
                return
            if seq != last + 1:
                return
            channel.rx_last[from_addr] = seq
            self._tx(control, receiver, _OP_DATA_ACK, struct.pack(">HI", mdl_id, seq))
        self.engine.emit(
            "mdl_rx",
            receiver.address,
            mdl_id=mdl_id,
            seq=seq,
            bytes=len(payload),
            reliable=bool(flags & _FLAG_RELIABLE),
        )
        for fn in list(channel._receivers):
            fn(channel, from_addr, payload, now)

    def _on_data_ack(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        mdl_id, seq = struct.unpack(">HI", body[:6])
        channel = control.channels.get(mdl_id)
        if channel is None:
            return
        addr = receiver.address
        queue = channel.queue.get(addr)
        if not queue or not channel.in_flight.get(addr):
            return
        if queue[0].seq != seq:
            return
        item = queue.popleft()
        channel.in_flight[addr] = False
        self.engine.cancel(channel._retx_timers.pop(addr, -1))
        self.engine.emit("mdl_ack", addr, mdl_id=mdl_id, seq=seq)
        item.op.resolve(SendStatus.DELIVERED)
        self._pump(channel, receiver)

    # -- clock sync ---------------------------------------------------------

    def sync_clocks(self, control: ControlChannel, requester: Device) -> Op:
        """Two-way clock sampling; resolves to a ClockSyncResult.

        The estimate places the exchange's remote timestamp against the
        midpoint of the local send and receive times, so its error is at
        most half the round trip, which is also the reported accuracy.
        """
        if control.link.state is not LinkState.CONNECTED:
            raise LinkDown("cannot sample clocks while the link is down")
        token = control.next_token
        control.next_token += 1
        op = Op()
        t0 = requester.local_time(self.engine.now)

        def answered(t1: int) -> None:
            t2 = requester.local_time(self.engine.now)
            rtt = t2 - t0
            offset = t1 - (t0 + t2) // 2
            accuracy = (rtt + 1) // 2
            peer = control.link.peer_of(requester.address)
            self.engine.emit(
                "clock_sync",
                requester.address,
                peer=str(peer.address),
                offset_us=offset,
                accuracy_us=accuracy,
                rtt_us=rtt,
            )
            op.resolve(ClockSyncResult(offset_us=offset, accuracy_us=accuracy, rtt_us=rtt))

        def timed_out() -> None:
            self.engine.emit("sync_fail", requester.address, token=token)
            op.resolve(error=SyncTimeout(f"token {token}"))

        # One request, answered or failed exactly at the sync timeout.
        return self._exchange(
            (control.pair, "sync", token),
            op,
            lambda: self._tx(control, requester, _OP_SYNC_REQ, struct.pack(">I", token)),
            answered,
            timed_out,
            self.params.sync_timeout_us,
            self.params.sync_timeout_us,
        )

    def _on_sync_req(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        token = struct.unpack(">I", body[:4])[0]
        t1 = receiver.local_time(self.engine.now)
        self._tx(control, receiver, _OP_SYNC_RSP, struct.pack(">Iq", token, t1))

    # -- dispatch -----------------------------------------------------------

    def _on_pdu(
        self, link: Link, receiver: Device, from_addr: DeviceAddress, body: bytes, now: SimTime
    ) -> None:
        if not body:
            return
        control = self.controls.get(pair_key(receiver.address, from_addr))
        if control is None:
            return
        opcode = body[0]
        rest = body[1:]
        answer = _ANSWERS.get(opcode)
        if answer is not None:
            self._answered((control.pair, answer, struct.unpack(">H", rest[:2])[0]))
        elif opcode == _OP_CREATE_REQ:
            self._on_create_req(control, receiver, rest)
        elif opcode == _OP_CREATE_CONFIG:
            self._on_create_config(control, receiver, rest)
        elif opcode == _OP_RECONNECT_REQ:
            self._on_reconnect_req(control, receiver, rest)
        elif opcode == _OP_DELETE_REQ:
            self._on_delete_req(control, receiver, rest)
        elif opcode == _OP_ABORT:
            self._on_abort(control, receiver, rest)
        elif opcode == _OP_DATA:
            self._on_data(control, receiver, from_addr, rest, now)
        elif opcode == _OP_DATA_ACK:
            self._on_data_ack(control, receiver, rest)
        elif opcode == _OP_SYNC_REQ:
            self._on_sync_req(control, receiver, rest)
        elif opcode == _OP_SYNC_RSP:
            token, t1 = struct.unpack(">Iq", rest[:12])
            self._answered((control.pair, "sync", token), t1)

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
compute the same keystream. A pair's one control channel sits on its one
``Link`` (``Link.control``), the only index of control channels: a PDU
finds it from the link its frame carried, with no pair lookup, and
``open_control_channel`` returns the one the link already has.

Each control exchange runs on the engine's ``Retry``: the request is resent
every ``retransmit_interval_us`` and the exchange fails with
``McapTimeout`` exactly ``handshake_timeout_us`` after it started (clock
sampling sends once and fails with ``SyncTimeout`` after
``sync_timeout_us``). A control channel holds its pending exchanges, keyed
by kind and id; each entry carries the continuation that runs when the
answer arrives, and a repeated reconnect or delete of a channel joins the
exchange in flight. A reliable sender's queue head is resent on one
``Retry`` with no deadline, which its ack, a suspend or a close resolves.
Channel operations return an engine ``Op``: ``result`` is the
``DataChannel`` or the ``ClockSyncResult``, ``error`` the ``McapError``. A
payload ``send`` resolves the ``Op`` it is given, or a new one, to the
payload's ``SendStatus``, and returns it.
"""

from __future__ import annotations

import enum
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Container

from .core import DeviceAddress, SimTime
from .engine import Device, Engine, Op, Retry
from .link import Link, LinkError, LinkManager, LinkState, PROTO_MCAP
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

# Channel handshake kind -> (request opcode, answer opcode). The answer
# completes the pending exchange of its kind, keyed by its mdl id.
_HANDSHAKES = {
    "create": (_OP_CREATE_REQ, _OP_CREATE_ACCEPT),
    "config": (_OP_CREATE_CONFIG, _OP_CREATE_CONFIRM),
    "reconnect": (_OP_RECONNECT_REQ, _OP_RECONNECT_ACCEPT),
    "delete": (_OP_DELETE_REQ, _OP_DELETE_ACK),
}
_ANSWERS = {answer: kind for kind, (_request, answer) in _HANDSHAKES.items()}

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
    # sender -> the Retry resending its queue head, while the channel is active
    _retx: dict[DeviceAddress, Retry] = field(default_factory=dict)
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
    # (kind, id) -> (retry, continuation run on the answer, op)
    pending: dict[tuple, tuple[Retry, Callable, Op]] = field(default_factory=dict)


class McapManager:
    """Channel management state for every pair on one engine."""

    def __init__(self, engine: Engine, links: LinkManager, params: SimParams):
        self.engine = engine
        self.links = links
        self.params = params
        links.register_protocol(PROTO_MCAP, self._on_pdu)

    # -- control channel ----------------------------------------------------

    def open_control_channel(self, a: Device, b: Device) -> ControlChannel:
        """Get or create the single control channel between two devices.

        Requires a live, authenticated link between them.
        """
        link = self.links.link_between(a.address, b.address)
        if link is not None and link.control is not None:
            return link.control
        if link is None or link.state is not LinkState.CONNECTED:
            raise LinkDown(f"no live link between {a.address} and {b.address}")
        if not link.authenticated:
            raise NotAuthenticated(f"link {a.address}<->{b.address} is not authenticated")
        control = link.control = ControlChannel(link=link)
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
        for retry in channel._retx.values():
            retry.resolve()
        channel._retx.clear()

    # -- wire helpers -------------------------------------------------------

    def _tx(self, control: ControlChannel, sender: Device, opcode: int, body: bytes) -> None:
        try:
            self.links.send_on_link(
                control.link, sender, PROTO_MCAP, bytes([opcode]) + body
            )
        except LinkError:
            return
        name = _OP_NAMES.get(opcode)
        if name is not None:
            mdl_id = struct.unpack(">H", body[:2])[0] if len(body) >= 2 else 0
            self.engine.emit("mcap_tx", sender.address, op=name, mdl_id=mdl_id)

    # -- exchange machinery -------------------------------------------------

    def _exchange(
        self,
        control: ControlChannel,
        key: tuple,
        op: Op,
        send: Callable[[], object],
        on_answer: Callable,
        on_timeout: Callable[[], None],
        interval_us: int,
        timeout_us: int,
    ) -> Op:
        """Retry ``send`` until ``_answered(control, key)`` or the deadline.

        Returns ``op``, or, when ``key`` is already pending, the op of that
        exchange: a repeated request joins the one in flight.
        """
        pending = control.pending.get(key)
        if pending is not None:
            return pending[2]

        def expire() -> None:
            del control.pending[key]
            on_timeout()

        retry = Retry(self.engine, send, interval_us, timeout_us, expire)
        control.pending[key] = (retry, on_answer, op)
        retry.start()
        return op

    def _answered(self, control: ControlChannel, key: tuple, *answer) -> None:
        entry = control.pending.pop(key, None)
        if entry is not None:
            retry, on_answer, _op = entry
            retry.resolve()
            on_answer(*answer)

    def _handshake(
        self,
        control: ControlChannel,
        initiator: Device,
        kind: str,
        mdl_id: int,
        op: Op,
        on_answer: Callable[[], None],
        body: bytes | None = None,
    ) -> Op:
        """``_exchange`` for one ``_HANDSHAKES`` request on ``mdl_id`` (``body``
        defaults to the bare id); ``op`` fails with ``McapTimeout``."""
        opcode = _HANDSHAKES[kind][0]
        if body is None:
            body = struct.pack(">H", mdl_id)
        return self._exchange(
            control,
            (kind, mdl_id),
            op,
            lambda: self._tx(control, initiator, opcode, body),
            on_answer,
            lambda: op.resolve(error=McapTimeout(str((control.link.pair, kind, mdl_id)))),
            self.params.retransmit_interval_us,
            self.params.handshake_timeout_us,
        )

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
            self._handshake(control, initiator, "config", mdl_id, op, confirmed)

        req = struct.pack(">HB", mdl_id, _FLAG_RELIABLE if reliable else 0)
        return self._handshake(control, initiator, "create", mdl_id, op, accepted, req)

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

        return self._handshake(control, initiator, "reconnect", mdl_id, op, complete)

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

        def complete() -> None:
            self._close_local(channel, initiator.address, "delete")
            op.resolve(channel)

        return self._handshake(control, initiator, "delete", mdl_id, op, complete)

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
        retry = channel._retx.pop(sender, None)
        if retry is not None:
            retry.resolve()
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

    def send(
        self, channel: DataChannel, sender: Device, payload: bytes, op: Op | None = None
    ) -> Op:
        """Submit one payload; returns ``op``, or a new ``Op``, for its SendStatus.

        Reliable channels queue and retransmit until the peer acknowledges,
        surviving link loss: the op stays pending while the payload is
        queued, and resolves to DELIVERED on its ack or to ABANDONED when the
        queue is settled or the channel closes. Streaming channels transmit
        once, immediately, and return the op already resolved to DELIVERED,
        or to DROPPED when the medium or link does not carry the frame.
        The channel seq of a sender's payloads counts 1, 2, 3... in the order
        they are sent.
        """
        control = channel.control
        link = control.link
        if channel.state is ChannelState.CLOSED:
            raise ChannelClosed(f"mdl {channel.mdl_id} is closed")
        if sender is not link.master and sender is not link.slave and sender.address not in link.pair:
            raise McapError(f"{sender.address} is not an endpoint")
        limit = link.params.page_size_bytes
        if len(payload) > limit:
            raise McapError(f"payload of {len(payload)} bytes exceeds page size {limit}")
        seq = channel.tx_seq.get(sender.address, 0) + 1
        channel.tx_seq[sender.address] = seq
        if op is None:
            op = Op()
        if channel.reliable:
            queue = channel.queue.setdefault(sender.address, deque())
            queue.append(_QueuedItem(seq=seq, payload=payload, op=op))
            self._pump(channel, sender)
            return op
        if (
            channel.state is ChannelState.SUSPENDED
            or link.state is not LinkState.CONNECTED
        ):
            reason = "link_down"
        elif self._tx_data(channel, sender, seq, payload, attempts=0):
            op.resolve(SendStatus.DELIVERED)
            return op
        else:
            reason = "loss"
        self.engine.emit(
            "mdl_drop", sender.address, mdl_id=channel.mdl_id, seq=seq, reason=reason
        )
        op.resolve(SendStatus.DROPPED)
        return op

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
        """Start resending the sender's queue head, unless one is in flight."""
        addr = sender.address
        if channel.state is not ChannelState.ACTIVE or addr in channel._retx:
            return
        queue = channel.queue.get(addr)
        if not queue:
            return
        item = queue[0]

        def send() -> None:
            self._tx_data(channel, sender, item.seq, item.payload, item.attempts)
            item.attempts += 1

        channel._retx[addr] = Retry(self.engine, send, self.params.retransmit_interval_us).start()

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
        retry = channel._retx.get(addr)
        # An ack with no live retry (the channel was suspended or settled
        # meanwhile) or for an older seq is ignored; the queue is non-empty
        # while its retry lives.
        if retry is None or channel.queue[addr][0].seq != seq:
            return
        del channel._retx[addr]
        retry.resolve()
        item = channel.queue[addr].popleft()
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
            control,
            ("sync", token),
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
        control = link.control
        if not body or control is None:
            return
        opcode = body[0]
        rest = body[1:]
        if opcode == _OP_DATA:
            self._on_data(control, receiver, from_addr, rest, now)
        elif opcode == _OP_DATA_ACK:
            self._on_data_ack(control, receiver, rest)
        elif opcode in _ANSWERS:
            self._answered(control, (_ANSWERS[opcode], struct.unpack(">H", rest[:2])[0]))
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
        elif opcode == _OP_SYNC_REQ:
            self._on_sync_req(control, receiver, rest)
        elif opcode == _OP_SYNC_RSP:
            token, t1 = struct.unpack(">Iq", rest[:12])
            self._answered(control, ("sync", token), t1)

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

Both ends of a pair share its one ``ControlChannel`` and one ``DataChannel``
record per data channel, never removed, so a PDU's id always finds its
record and a request's handler does the pair's work once,
and an abort's frame changes nothing where it lands: the aborting end has
closed the shared channel already. A closed channel's queues are settled by
the receiver's watermark, as ``abandon_pending`` settles them.

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
exchange in flight. Each reliable sender keeps one ``Retry`` with no
deadline, made at its first payload: it resends the queue head until the
head's ack, a suspend or a close resolves it, and is started again for each
new head, after a reconnect too.
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
from typing import Callable, Optional

from .core import DeviceAddress, SimTime
from .engine import TYPED, Device, Engine, Op, Retry
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

_MDL_SEND, _MDL_RX, _MDL_ACK = TYPED["mdl_send"], TYPED["mdl_rx"], TYPED["mdl_ack"]

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


class SenderState:
    """One sender's side of a data channel: the seq of its last payload, its
    queue of unacknowledged payloads (reliable channels), its one ``Retry``
    (made at its first reliable payload, and running while it resends the
    queue head on an active channel), and the receiver's watermark, the last
    seq it took in order from this sender."""

    __slots__ = ("tx_seq", "queue", "retx", "rx_last")

    def __init__(self):
        self.tx_seq = 0
        self.queue: deque[_QueuedItem] = deque()
        self.retx: Optional[Retry] = None
        self.rx_last = 0


@dataclass
class DataChannel:
    """One logical data pipe between a pair; shared by both endpoints.

    ``senders`` holds one ``SenderState`` per sending address, so each
    payload, ack and receipt looks its sender up once.
    """

    control: "ControlChannel"
    mdl_id: int
    reliable: bool
    state: ChannelState = ChannelState.ACTIVE
    senders: dict[DeviceAddress, SenderState] = field(default_factory=dict)
    _receivers: list[Callable] = field(default_factory=list)

    def on_receive(self, fn: Callable[["DataChannel", DeviceAddress, bytes, SimTime], None]) -> None:
        self._receivers.append(fn)

    def sender(self, address: DeviceAddress) -> SenderState:
        """The state of ``address``'s side, made on first use."""
        state = self.senders.get(address)
        if state is None:
            state = self.senders[address] = SenderState()
        return state

    def pending_count(self, sender: DeviceAddress) -> int:
        state = self.senders.get(sender)
        return 0 if state is None else len(state.queue)


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
        if link.link_key is None:
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
        for state in channel.senders.values():
            if state.retx is not None:
                state.retx.resolve()

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
        peer = control.link.peer_of(initiator)
        mdl_id = control.next_mdl_id
        control.next_mdl_id += 1
        op = Op()

        def confirmed() -> None:
            self.engine.emit(
                "mdl_create",
                initiator.address,
                mdl_id=mdl_id,
                reliable=reliable,
                peer=str(peer.address),
            )
            op.resolve(control.channels[mdl_id])

        def accepted() -> None:
            self._handshake(control, initiator, "config", mdl_id, op, confirmed)

        req = struct.pack(">HB", mdl_id, _FLAG_RELIABLE if reliable else 0)
        return self._handshake(control, initiator, "create", mdl_id, op, accepted, req)

    def _on_create_req(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        mdl_id, flags = struct.unpack(">HB", body[:3])
        if mdl_id not in control.channels:
            control.channels[mdl_id] = DataChannel(
                control=control, mdl_id=mdl_id, reliable=bool(flags & _FLAG_RELIABLE)
            )
        self._tx(control, receiver, _OP_CREATE_ACCEPT, struct.pack(">H", mdl_id))

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
            self._pump(channel, initiator, channel.sender(initiator.address))

        return self._handshake(control, initiator, "reconnect", mdl_id, op, complete)

    def _on_reconnect_req(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        mdl_id = struct.unpack(">H", body[:2])[0]
        channel = control.channels[mdl_id]
        if channel.state is ChannelState.CLOSED:
            return
        if channel.state is ChannelState.SUSPENDED:
            channel.state = ChannelState.ACTIVE
        self._tx(control, receiver, _OP_RECONNECT_ACCEPT, struct.pack(">H", mdl_id))
        self._pump(channel, receiver, channel.sender(receiver.address))

    # -- close --------------------------------------------------------------

    def close_channel(
        self, channel: DataChannel, initiator: Device, abort: bool = False
    ) -> Op:
        """Delete a channel; ``abort`` tears it down without waiting.

        The delete request's handler closes the shared channel before its
        ack; an abort closes it here, and its frame changes nothing where it
        lands. Each queue is settled as ``abandon_pending`` settles it.
        """
        control = channel.control
        if channel.state is ChannelState.CLOSED:
            return Op.resolved(channel)
        mdl_id = channel.mdl_id
        if abort:
            self._tx(control, initiator, _OP_ABORT, struct.pack(">H", mdl_id))  # dropped on a down link
            self._close_local(channel, initiator.address, "abort")
            return Op.resolved(channel)
        op = Op()
        return self._handshake(
            control, initiator, "delete", mdl_id, op, lambda: op.resolve(channel)
        )

    def abandon_pending(self, channel: DataChannel, sender: DeviceAddress) -> int:
        """Settle a sender's queue without transmitting further.

        Items whose channel seq is at most the receiver's watermark
        (``SenderState.rx_last``) are marked delivered, since the peer took
        them in order; the rest are abandoned. Returns the abandoned count.
        """
        state = channel.senders.get(sender)
        if state is None:
            return 0
        items, state.queue = state.queue, deque()
        if state.retx is not None:
            state.retx.resolve()
        abandoned = 0
        for item in items:
            if item.seq <= state.rx_last:
                item.op.resolve(SendStatus.DELIVERED)
            else:
                item.op.resolve(SendStatus.ABANDONED)
                abandoned += 1
        return abandoned

    def _close_local(self, channel: DataChannel, by: DeviceAddress, mode: str) -> None:
        if channel.state is ChannelState.CLOSED:
            return
        channel.state = ChannelState.CLOSED
        abandoned = sum(self.abandon_pending(channel, sender) for sender in list(channel.senders))
        self.engine.emit("mdl_close", by, mdl_id=channel.mdl_id, mode=mode, abandoned=abandoned)

    def _on_delete_req(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        mdl_id = struct.unpack(">H", body[:2])[0]
        self._close_local(control.channels[mdl_id], receiver.address, "delete")
        self._tx(control, receiver, _OP_DELETE_ACK, struct.pack(">H", mdl_id))

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
        if sender is not link.master and sender is not link.slave:
            raise McapError(f"{sender.address} is not an endpoint")
        limit = link.params.page_size_bytes
        if len(payload) > limit:
            raise McapError(f"payload of {len(payload)} bytes exceeds page size {limit}")
        state = channel.sender(sender.address)
        seq = state.tx_seq = state.tx_seq + 1
        if op is None:
            op = Op()
        if channel.reliable:
            state.queue.append(_QueuedItem(seq=seq, payload=payload, op=op))
            self._pump(channel, sender, state)
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
        if link.link_key is not None:
            body = apply_cipher(link.link_key, clock, payload)
            flags |= _FLAG_ENCRYPTED
        header = _DATA_HEADER.pack(channel.mdl_id, seq, flags, clock)
        try:
            deliveries = self.links.send_on_link(
                link, sender, PROTO_MCAP, bytes([_OP_DATA]) + header + body
            )
        except LinkError:
            return False
        self.engine.emit_typed(
            _MDL_SEND, sender.address, len(payload), channel.mdl_id, attempts, seq
        )
        return bool(deliveries)

    def _pump(self, channel: DataChannel, sender: Device, state: SenderState) -> None:
        """Start the sender's ``Retry`` on its queue head, unless one is in
        flight; ``state`` is the sender's side of the channel."""
        if channel.state is not ChannelState.ACTIVE or not state.queue:
            return
        retx = state.retx
        if retx is None:

            def send() -> None:
                item = state.queue[0]
                self._tx_data(channel, sender, item.seq, item.payload, item.attempts)
                item.attempts += 1

            retx = state.retx = Retry(self.engine, send, self.params.retransmit_interval_us)
        elif not retx.done:
            return
        retx.start()

    def _on_data(
        self, control: ControlChannel, receiver: Device, from_addr: DeviceAddress, body: bytes, now: SimTime
    ) -> None:
        mdl_id, seq, flags, clock = _DATA_HEADER.unpack_from(body, 0)
        channel = control.channels[mdl_id]
        if channel.state is ChannelState.CLOSED:
            return
        payload = body[_DATA_HEADER.size :]
        if flags & _FLAG_ENCRYPTED:
            payload = apply_cipher(control.link.link_key, clock, payload)
        reliable = bool(flags & _FLAG_RELIABLE)
        if reliable:
            state = channel.sender(from_addr)
            last = state.rx_last
            if seq > last + 1:
                return  # out of order: not taken
            self._tx(control, receiver, _OP_DATA_ACK, struct.pack(">HI", mdl_id, seq))
            if seq <= last:
                return  # a duplicate, acked again
            state.rx_last = seq
        self.engine.emit_typed(_MDL_RX, receiver.address, len(payload), mdl_id, reliable, seq)
        for fn in list(channel._receivers):
            fn(channel, from_addr, payload, now)

    def _on_data_ack(self, control: ControlChannel, receiver: Device, body: bytes) -> None:
        mdl_id, seq = struct.unpack(">HI", body[:6])
        channel = control.channels[mdl_id]
        state = channel.senders.get(receiver.address)
        # An ack with no running retry (the channel was suspended or settled
        # meanwhile) or for an older seq is ignored; the queue is non-empty
        # while its retry runs.
        if state is None or state.retx is None or state.retx.done or state.queue[0].seq != seq:
            return
        state.retx.resolve()
        item = state.queue.popleft()
        self.engine.emit_typed(_MDL_ACK, receiver.address, mdl_id, seq)
        item.op.resolve(SendStatus.DELIVERED)
        self._pump(channel, receiver, state)

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
            peer = control.link.peer_of(requester)
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
        control = link.control  # _tx and _tx_data send an opcode, on control.link only
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
        elif opcode == _OP_CREATE_CONFIG:  # the channel exists since the accept
            self._tx(control, receiver, _OP_CREATE_CONFIRM, rest[:2])
        elif opcode == _OP_RECONNECT_REQ:
            self._on_reconnect_req(control, receiver, rest)
        elif opcode == _OP_DELETE_REQ:
            self._on_delete_req(control, receiver, rest)
        elif opcode == _OP_SYNC_REQ:
            self._on_sync_req(control, receiver, rest)
        elif opcode == _OP_SYNC_RSP:
            token, t1 = struct.unpack(">Iq", rest[:12])
            self._answered(control, ("sync", token), t1)

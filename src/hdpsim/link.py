"""Connections: paging, piconet topology, hop schedules, link supervision.

A device that pages a previously discovered target becomes the master of the
resulting link and of the piconet containing it. A piconet holds at most
seven slaves; a device masters at most one piconet but may simultaneously be
a slave in others, and links can swap roles after the fact. The links are
the only record of the topology: ``piconet(master)`` is computed from them,
as the links ``master`` masters, lost ones included, so a role switch moves
a link to the other piconet by swapping its ends. The master drives a
keepalive exchange on one timer per link, whose tick checks both sides;
three consecutive misses on either side mark the link lost, after which the
same master may page again to restore the same link object with its
negotiated parameters intact.

On a lossless, jitter-free medium, with the keepalive interval longer than a
round trip of 2p (p the propagation delay), a tick at T whose two ends are in
range sends no keepalive: the keepalive would land at T+p, and the ack the
slave then sends would land at T+2p. The tick keeps the delivery's
``(T+p, event id)`` on the link, and the next tick first settles the exchange:
the slave has heard, the master's keepalive is answered. A move of either
end, or a new medium model, before that delivery can change the ack, so it
queues the real keepalive under the kept id, and the slave answers it as
usual. Stopping supervision before then (a loss, a restore or a role switch)
queues it too, since the slave may still hear it.

Paging reuses the inquiry sweep arithmetic: the pager transmits at the
moments the target's standby scan is on the matching frequency, then the
two sides finish a four-message handshake (page, accept, parameters,
acknowledgement) on the frequency that worked. A page runs on the engine's
``Retry``: one sweep per inquiry cycle, failing with ``Unreachable`` exactly
``page_timeout_us`` after it started. ``page`` returns an engine ``Op``
whose ``result`` is the ``Link``. A pair's ``Link`` is made once, in
``_establish``, and a restore reuses it, so a frame sent on it carries it:
``send_on_link`` finds the peer by identity, and the medium and the receiving
handlers take the link from the frame, with no pair lookup.
"""

from __future__ import annotations

import enum
import logging
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import DeviceAddress, SimTime
from .discovery import DiscoveryManager, sweep_slots
from .engine import Device, Engine, FrameKind, Op, RadioFrame, Retry
from .params import SimParams
from .security import (
    AuthOutcome,
    LinkKey,
    Pin,
    authenticate,
    derive_init_key,
)

log = logging.getLogger(__name__)

MAX_SLAVES = 7

PROTO_LINK = 1
PROTO_MCAP = 2
PROTO_HDP = 3

_MSG_PAGE_ACCEPT = 1
_MSG_PAGE_PARAMS = 2
_MSG_PARAMS_ACK = 3
_MSG_KEEPALIVE = 4
_MSG_KEEPALIVE_ACK = 5

_PARAMS_STRUCT = struct.Struct(">QBBIH")
_MASK64 = (1 << 64) - 1


class LinkError(Exception):
    """Base for connection-layer failures."""


class NotDiscovered(LinkError):
    """Page target's address was never discovered by the initiator."""


class NotConnectable(LinkError):
    """Target is configured to refuse connections."""


class Unreachable(LinkError):
    """Target cannot be reached over the radio."""


class PiconetFull(LinkError):
    """The initiator's piconet already has seven slaves."""


class WouldViolateTopology(LinkError):
    """Role switch refused: the prospective master's piconet is full."""


def _mix_round(h: int, v: int) -> int:
    """One ``_mix64`` round: ``v`` folded into the state ``h``."""
    h = (h + (v & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return h


def _mix64(*values: int) -> int:
    h = 0x243F6A8885A308D3
    for v in values:
        h = _mix_round(h, v)
    return h


@dataclass(frozen=True)
class ConnectionParams:
    """Master-chosen link schedule and segmentation settings. ``hop_state``,
    ``_mix64(hop_seed)`` made once, is derived: not encoded, compared or shown."""

    hop_seed: int
    freq_low: int
    freq_high: int
    hop_interval_us: int
    page_size_bytes: int
    hop_state: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.hop_seed <= _MASK64:
            raise ValueError("hop_seed out of range")
        if not 0 <= self.freq_low <= self.freq_high <= 31:
            raise ValueError("frequency range must satisfy 0 <= low <= high <= 31")
        if self.hop_interval_us <= 0:
            raise ValueError("hop_interval_us must be positive")
        if self.page_size_bytes <= 0:
            raise ValueError("page_size_bytes must be positive")
        object.__setattr__(self, "hop_state", _mix64(self.hop_seed))

    def encode(self) -> bytes:
        return _PARAMS_STRUCT.pack(
            self.hop_seed,
            self.freq_low,
            self.freq_high,
            self.hop_interval_us,
            self.page_size_bytes,
        )

    @classmethod
    def decode(cls, raw: bytes) -> "ConnectionParams":
        seed, low, high, interval, page = _PARAMS_STRUCT.unpack(raw[: _PARAMS_STRUCT.size])
        return cls(seed, low, high, interval, page)


def negotiate_params(
    master: DeviceAddress,
    slave: DeviceAddress,
    seed: int,
    params: SimParams,
) -> ConnectionParams:
    """Parameters the master assigns to one link.

    Pure in its inputs: the same master, slave, and simulation seed always
    produce the same parameters, while different pairs get different hop
    sequences.
    """
    hop_seed = _mix64(master.value, slave.value, seed, 0x484F50)
    return ConnectionParams(
        hop_seed=hop_seed,
        freq_low=params.freq_low,
        freq_high=params.freq_high,
        hop_interval_us=params.hop_interval_us,
        page_size_bytes=params.page_size_bytes,
    )


def hop_frequency(params: ConnectionParams, t: SimTime) -> int:
    """Frequency both endpoints of a link use during the slot containing t:
    ``_mix64(hop_seed, slot)`` into the range, of which only the slot's
    round is run, from the pre-mixed ``params.hop_state``."""
    span = params.freq_high - params.freq_low + 1
    slot = t // params.hop_interval_us
    return params.freq_low + _mix_round(params.hop_state, slot) % span


class LinkState(enum.Enum):
    CONNECTED = "connected"
    LOST = "lost"


@dataclass
class Link:
    """One master-slave connection; a single object shared by both ends."""

    master: Device
    slave: Device
    params: ConnectionParams
    state: LinkState = LinkState.CONNECTED
    link_key: Optional[LinkKey] = None  # set once pairing authenticates the link
    # Keepalive bookkeeping, master side then slave side.
    ka_pending: bool = False
    ka_misses: int = 0
    slave_heard: bool = False
    slave_misses: int = 0
    _timer: int = -1  # the pending supervision tick
    # An elided keepalive: (sent at, delivery time, delivery event id).
    _ka_elided: Optional[tuple[int, int, int]] = field(default=None, compare=False, repr=False)
    _observers: list[Callable[["Link"], None]] = field(default_factory=list)
    _hop_slot: int = field(default=-1, compare=False, repr=False)
    _hop_freq: int = field(default=0, compare=False, repr=False)
    # The pair's mcap control channel, once one is open: its only index.
    control: Optional[object] = field(default=None, compare=False, repr=False)

    def frequency_at(self, t: SimTime) -> int:
        """``hop_frequency(self.params, t)``, cached per hop slot; params are fixed."""
        slot = t // self.params.hop_interval_us
        if slot != self._hop_slot:
            self._hop_slot = slot
            self._hop_freq = hop_frequency(self.params, t)
        return self._hop_freq

    @property
    def pair(self) -> tuple[DeviceAddress, DeviceAddress]:
        return pair_key(self.master.address, self.slave.address)

    def peer_of(self, device: Device) -> Device:
        if device is self.master:
            return self.slave
        if device is self.slave:
            return self.master
        raise LinkError(f"{device.address} is not an endpoint of this link")

    def on_state_change(self, fn: Callable[["Link"], None]) -> None:
        self._observers.append(fn)

    def off_state_change(self, fn: Callable[["Link"], None]) -> None:
        self._observers.remove(fn)


def pair_key(a: DeviceAddress, b: DeviceAddress) -> tuple[DeviceAddress, DeviceAddress]:
    return (a, b) if a.value <= b.value else (b, a)


@dataclass
class _Page:
    """Protocol state of one page in progress."""

    initiator: Device
    target: DeviceAddress
    op: Op = field(default_factory=Op)
    retry: Optional[Retry] = None
    # Set once the target accepts: the parameters offered in the handshake.
    params: Optional[ConnectionParams] = None
    listen_freq: int = -1
    listen_from: SimTime = -1


class LinkManager:
    """Connection state for every device on one engine."""

    def __init__(self, engine: Engine, discovery: DiscoveryManager, params: SimParams):
        self.engine = engine
        self.discovery = discovery
        self.params = params
        self.links: dict[tuple[DeviceAddress, DeviceAddress], Link] = {}
        # Writes to links, _links_of or a link's ends: only _establish and
        # role_switch make them.
        self.topology_changes = 0
        self._links_of: dict[DeviceAddress, list[Link]] = {}
        self._pages: dict[tuple[DeviceAddress, DeviceAddress], _Page] = {}
        self._pins: dict[DeviceAddress, Pin] = {}
        self._rate_caps: dict[DeviceAddress, int] = {}
        self._protocols: dict[int, Callable] = {}
        engine.add_frame_handler(FrameKind.PAGE, self._on_page)
        engine.add_frame_handler(FrameKind.LINK_DATA, self._on_link_data)
        engine.add_listen_provider(self._listening)
        engine.add_medium_hook(self._medium_changed)

    # -- configuration ------------------------------------------------------

    def set_pin(self, address: DeviceAddress, pin: Pin) -> None:
        self._pins[address] = pin

    def set_rate_cap(self, address: DeviceAddress, bps: int) -> None:
        if bps <= 0:
            raise ValueError("rate cap must be positive")
        self._rate_caps[address] = bps

    def register_protocol(self, proto: int, fn: Callable) -> None:
        """fn(link, receiver_device, from_addr, body, now) for one proto id."""
        self._protocols[proto] = fn

    # -- lookups ------------------------------------------------------------

    def link_between(self, a: DeviceAddress, b: DeviceAddress) -> Optional[Link]:
        return self.links.get(pair_key(a, b))

    def links_of(self, address: DeviceAddress) -> list[Link]:
        return list(self._links_of.get(address, ()))

    def piconet(self, master: DeviceAddress) -> dict[DeviceAddress, Link]:
        """The piconet ``master`` masters, lost links included: slave address
        -> link. Empty when ``master`` masters none."""
        return {
            link.slave.address: link
            for link in self._links_of.get(master, ())
            if link.master.address == master
        }

    # -- listening ----------------------------------------------------------

    def _listening(self, device: Device, t: SimTime):
        for link in self._links_of.get(device.address, ()):
            if link.state is LinkState.CONNECTED:
                yield link.frequency_at(t)
        for page in self._pages.values():
            if (
                page.initiator is device
                and page.listen_from >= 0
                and page.listen_from <= t < page.listen_from + self.params.inquiry_cycle_us
            ):
                yield page.listen_freq

    # -- paging -------------------------------------------------------------

    def page(self, initiator: Device, target: DeviceAddress) -> Op:
        """Connect to a discovered device; initiator becomes the master of a
        new link. A lost link is restored with its master unchanged.

        Raises immediately when the page cannot succeed: the target is
        unknown or undiscovered, refuses connections, is out of radio
        range, or the page would add a slave to the initiator's full
        piconet. Paging an endpoint of an existing live link returns an op
        already resolved to that link.
        """
        target_dev = self.engine.device(target)
        if target == initiator.address:
            raise LinkError("cannot page self")
        key = pair_key(initiator.address, target)
        existing = self.links.get(key)
        if existing is not None and existing.state is LinkState.CONNECTED:
            return Op.resolved(existing)
        if not self.discovery.knows(initiator.address, target):
            raise NotDiscovered(f"{initiator.address} has not discovered {target}")
        if not self.discovery.is_connectable(target):
            raise NotConnectable(str(target))
        if not self.engine.in_range(initiator, target_dev):
            raise Unreachable(f"{target} out of radio range")
        # A lost link is restored with its master unchanged, so re-paging it
        # adds no slave to the pager's piconet, whichever end pages.
        if existing is None and len(self.piconet(initiator.address)) >= MAX_SLAVES:
            raise PiconetFull(f"{initiator.address} already has {MAX_SLAVES} slaves")
        pending = self._pages.get(key)
        if pending is not None:
            return pending.op
        page = self._pages[key] = _Page(initiator, target)
        self.engine.emit("page", initiator.address, target=str(target))
        page.retry = Retry(
            self.engine,
            lambda: self._sweep(page),
            self.params.inquiry_cycle_us,
            self.params.page_timeout_us,
            lambda: self._page_timeout(page),
        )
        page.retry.start()
        return page.op

    def _sweep(self, page: _Page) -> None:
        """Schedule this cycle's page transmissions the target can hear."""
        now = self.engine.now
        target_dev = self.engine.device(page.target)
        hits = sweep_slots(
            self.params,
            self.discovery.schedule,
            target_dev.config.clock_offset_us,
            now,
            page.retry.deadline_us,
        )
        for slot, freq in hits:
            if slot == now:
                self._page_tx(page, freq)
            else:
                self.engine.schedule(slot, lambda p=page, f=freq: self._page_tx(p, f))

    def _page_tx(self, page: _Page, freq: int) -> None:
        if page.retry.done or self.engine.now >= page.retry.deadline_us:
            return
        if page.params is None:
            kind, payload = FrameKind.PAGE, b""
        else:
            kind = FrameKind.LINK_DATA
            payload = bytes([PROTO_LINK, _MSG_PAGE_PARAMS]) + page.params.encode()
        page.listen_freq = freq
        page.listen_from = self.engine.now
        frame = RadioFrame(page.initiator.address, freq, kind, payload, to=page.target)
        self.engine.broadcast(frame, page.initiator)

    def _page_timeout(self, page: _Page) -> None:
        del self._pages[pair_key(page.initiator.address, page.target)]
        error = Unreachable(f"page to {page.target} timed out")
        self.engine.emit(
            "page_failed",
            page.initiator.address,
            target=str(page.target),
            reason=type(error).__name__,
        )
        page.op.resolve(error=error)

    # -- handshake frames ---------------------------------------------------

    def _reply(self, receiver: Device, frame: RadioFrame, msg: int) -> None:
        """Answer a handshake frame on the frequency it arrived on."""
        payload = bytes([PROTO_LINK, msg])
        reply = RadioFrame(
            receiver.address, frame.freq_index, FrameKind.LINK_DATA, payload, to=frame.from_addr
        )
        self.engine.broadcast(reply, receiver)

    def _on_page(self, receiver: Device, frame: RadioFrame, now: SimTime) -> None:
        if self.discovery.is_connectable(receiver.address):
            self._reply(receiver, frame, _MSG_PAGE_ACCEPT)

    def _on_page_accept(self, receiver: Device, frame: RadioFrame, now: SimTime) -> None:
        page = self._pages.get(pair_key(receiver.address, frame.from_addr))
        if page is None or page.initiator is not receiver or page.params is not None:
            return
        existing = self.links.get(pair_key(receiver.address, page.target))
        if existing is not None:
            page.params = existing.params
        else:
            page.params = negotiate_params(
                receiver.address, page.target, self.engine.seed, self.params
            )
        self._page_tx(page, frame.freq_index)

    def _on_page_params(self, receiver: Device, frame: RadioFrame, now: SimTime) -> None:
        params = ConnectionParams.decode(frame.payload[2:])
        master = self.engine.device(frame.from_addr)
        if self._establish(master, receiver, params) is not None:
            self._reply(receiver, frame, _MSG_PARAMS_ACK)

    def _on_params_ack(self, receiver: Device, frame: RadioFrame, now: SimTime) -> None:
        key = pair_key(receiver.address, frame.from_addr)
        page = self._pages.get(key)
        link = self.links.get(key)
        if page is None or link is None:
            return
        del self._pages[key]
        page.retry.resolve()
        page.op.resolve(link)

    # -- establishment and supervision --------------------------------------

    def _establish(
        self, master: Device, slave: Device, params: ConnectionParams
    ) -> Optional[Link]:
        key = pair_key(master.address, slave.address)
        link = self.links.get(key)
        if link is not None:
            if link.state is LinkState.CONNECTED:
                return link
            link.state = LinkState.CONNECTED
            self.engine.emit(
                "link_restored", link.master.address, peer=str(link.slave.address)
            )
            log.debug(
                "t=%d link %s-%s restored", self.engine.now, link.master.address, link.slave.address
            )
        else:
            if len(self.piconet(master.address)) >= MAX_SLAVES:
                # Capacity was taken while the handshake was in flight; give
                # up silently and let the pager time out.
                return None
            link = Link(master=master, slave=slave, params=params)
            self.topology_changes += 1
            self.links[key] = link
            self._links_of.setdefault(master.address, []).append(link)
            self._links_of.setdefault(slave.address, []).append(link)
            self.discovery.note_known(master.address, slave.address)
            self.discovery.note_known(slave.address, master.address)
            self.engine.emit("connected", master.address, peer=str(slave.address))
        self._start_supervision(link)
        if link.link_key is None:
            self.pair_link(link)
        self._notify(link)
        return link

    def _stop_supervision(self, link: Link) -> None:
        self.engine.cancel(link._timer)
        if link._ka_elided is not None:
            self._unelide(link)
            link._ka_elided = None
        link.ka_pending = False
        link.ka_misses = 0
        link.slave_heard = False
        link.slave_misses = 0

    def _start_supervision(self, link: Link) -> None:
        self._stop_supervision(link)
        link._timer = self.engine.schedule_in(
            self.params.keepalive_interval_us, lambda: self._supervise(link)
        )

    def _supervise(self, link: Link) -> None:
        """Master miss check and keepalive, slave miss check, next tick. It
        runs on live links only: ``_lose`` cancels the tick."""
        if link._ka_elided is not None:
            # The last tick's elided exchange has landed, ack included.
            link._ka_elided = None
            link.slave_heard = True
            link.ka_pending = False
            link.ka_misses = 0
        if link.ka_pending:
            link.ka_misses += 1
            if link.ka_misses >= self.params.keepalive_miss_threshold:
                self._lose(link, "keepalive_timeout")
                return
        if self._elides_keepalive(link):
            now = self.engine.now
            at = now + self.engine.medium.propagation_us
            link._ka_elided = (now, at, self.engine.reserve_ids(1))
        else:
            self.send_on_link(link, link.master, PROTO_LINK, bytes([_MSG_KEEPALIVE]))
        link.ka_pending = True
        if link.slave_heard:
            link.slave_misses = 0
        else:
            link.slave_misses += 1
            if link.slave_misses >= self.params.keepalive_miss_threshold:
                self._lose(link, "keepalive_silence")
                return
        link.slave_heard = False
        link._timer = self.engine.schedule_in(
            self.params.keepalive_interval_us, lambda: self._supervise(link)
        )

    def _elides_keepalive(self, link: Link) -> bool:
        """Whether the keepalive about to be sent, and its ack, surely land."""
        medium = self.engine.medium
        return (
            medium.loss_probability == 0.0
            and medium.jitter_us == 0
            and self.params.keepalive_interval_us > 2 * medium.propagation_us
            and self.engine.in_range(link.master, link.slave)
        )

    def _unelide(self, link: Link) -> None:
        """Queue an elided keepalive that has not landed yet as the real frame,
        under its reserved id; the slave's handler then answers it."""
        sent_at, at, event_id = link._ka_elided
        if self.engine.fired(at, event_id):
            return
        link._ka_elided = None
        frame = RadioFrame(
            from_addr=link.master.address,
            freq_index=link.frequency_at(sent_at),
            kind=FrameKind.LINK_DATA,
            payload=bytes([PROTO_LINK, _MSG_KEEPALIVE]),
            to=link.slave.address,
            link=link,
        )
        self.engine.schedule_as(event_id, at, self.engine.delivery(frame, link.slave))

    def _medium_changed(self, device: Optional[Device]) -> None:
        """A move or a new medium model can change what an elided keepalive's
        ack does, unless the keepalive has already landed."""
        links = self.links.values() if device is None else self._links_of.get(device.address, ())
        for link in links:
            if link._ka_elided is not None:
                self._unelide(link)

    def _lose(self, link: Link, reason: str) -> None:
        if link.state is LinkState.LOST:
            return
        link.state = LinkState.LOST
        self._stop_supervision(link)
        self.engine.emit(
            "link_lost",
            link.master.address,
            peer=str(link.slave.address),
            reason=reason,
        )
        log.debug(
            "t=%d link %s-%s lost: %s", self.engine.now, link.master.address, link.slave.address, reason
        )
        self._notify(link)

    def _notify(self, link: Link) -> None:
        for fn in list(link._observers):
            fn(link)

    def drop_link(self, a: DeviceAddress, b: DeviceAddress, reason: str = "forced") -> None:
        link = self.link_between(a, b)
        if link is None:
            raise LinkError(f"no link between {a} and {b}")
        self._lose(link, reason)

    # -- data plane ---------------------------------------------------------

    def send_on_link(self, link: Link, sender: Device, proto: int, body: bytes):
        if link.state is not LinkState.CONNECTED:
            raise LinkError("link is down")
        peer = link.peer_of(sender)
        frame = tuple.__new__(RadioFrame, (
            sender.address, link.frequency_at(self.engine.now), FrameKind.LINK_DATA,
            bytes([proto]) + body, peer.address, link,
        ))
        return self.engine.broadcast(frame, sender)

    def _on_link_data(self, receiver: Device, frame: RadioFrame, now: SimTime) -> None:
        # Built here or by send_on_link: a protocol byte first, and each
        # frame of another protocol carries its link.
        proto = frame.payload[0]
        if proto == PROTO_LINK:
            msg = frame.payload[1]
            if msg == _MSG_PAGE_ACCEPT:
                self._on_page_accept(receiver, frame, now)
            elif msg == _MSG_PAGE_PARAMS:
                self._on_page_params(receiver, frame, now)
            elif msg == _MSG_PARAMS_ACK:
                self._on_params_ack(receiver, frame, now)
            elif msg == _MSG_KEEPALIVE:
                self._on_keepalive(receiver, frame)
            elif msg == _MSG_KEEPALIVE_ACK:
                self._on_keepalive_ack(receiver, frame)
            return
        handler = self._protocols.get(proto)
        if handler is not None:
            handler(frame.link, receiver, frame.from_addr, frame.payload[1:], now)

    def _on_keepalive(self, receiver: Device, frame: RadioFrame) -> None:
        link = frame.link
        if link.state is not LinkState.CONNECTED:
            return
        if receiver is link.slave:
            link.slave_heard = True
            self.send_on_link(link, receiver, PROTO_LINK, bytes([_MSG_KEEPALIVE_ACK]))

    def _on_keepalive_ack(self, receiver: Device, frame: RadioFrame) -> None:
        # On a lost link this writes the values _stop_supervision wrote.
        link = frame.link
        if receiver is link.master:
            link.ka_pending = False
            link.ka_misses = 0

    # -- pairing ------------------------------------------------------------

    def pair_link(self, link: Link) -> Optional[AuthOutcome]:
        """Authenticate a link when both endpoints have a configured PIN.

        Each side derives its initialization key from its own PIN, the
        slave's address, and a shared random value; mutual challenge
        response then succeeds only when the PINs match. Returns None when
        either side has no PIN.
        """
        pin_m = self._pins.get(link.master.address)
        pin_s = self._pins.get(link.slave.address)
        if pin_m is None or pin_s is None:
            return None
        rand = self.engine.rng.randbytes(16)
        key_m = derive_init_key(pin_m, link.slave.address, rand)
        key_s = derive_init_key(pin_s, link.slave.address, rand)
        outcome = authenticate(
            key_m, key_s, link.master.address, link.slave.address, self.engine.rng
        )
        if outcome is AuthOutcome.SUCCESS:
            link.link_key = key_m
            self.engine.emit(
                "auth_ok",
                link.master.address,
                peer=str(link.slave.address),
                key_hash=key_m.hash8(),
            )
        else:
            self.engine.emit(
                "auth_fail",
                link.master.address,
                peer=str(link.slave.address),
                key_hash_local=key_m.hash8(),
                key_hash_peer=key_s.hash8(),
            )
        return outcome

    # -- topology operations ------------------------------------------------

    def role_switch(self, link: Link) -> Link:
        """Swap master and slave on a live link, moving it to the new master's piconet."""
        if link.state is not LinkState.CONNECTED:
            raise LinkError("cannot switch roles on a lost link")
        new_master, new_slave = link.slave, link.master
        target = self.piconet(new_master.address)
        if new_slave.address not in target and len(target) >= MAX_SLAVES:
            raise WouldViolateTopology(
                f"{new_master.address} piconet already has {MAX_SLAVES} slaves"
            )
        self.topology_changes += 1
        # Stopped before the swap: an elided keepalive is queued master to slave.
        self._stop_supervision(link)
        link.master, link.slave = new_master, new_slave
        self._start_supervision(link)
        self.engine.emit(
            "role_switch",
            new_master.address,
            peer=str(new_slave.address),
        )
        return link

    def admit_traffic(
        self, master: DeviceAddress, requested: dict[DeviceAddress, int]
    ) -> dict[DeviceAddress, int]:
        """Grant per-slave rates under the piconet's aggregate cap.

        When total demand fits the cap every request is granted in full;
        otherwise each slave gets its proportional share rounded down, so
        the sum of grants never exceeds the cap.
        """
        piconet = self.piconet(master)
        if not piconet:
            raise LinkError(f"{master} does not master a piconet")
        for addr, bps in requested.items():
            if addr not in piconet:
                raise LinkError(f"{addr} is not a slave of {master}")
            if bps < 0:
                raise ValueError("requested rate must be non-negative")
        total = sum(requested.values())
        cap = self._rate_caps.get(master, self.params.version_rate_cap_bps)
        if total <= cap:
            granted = dict(requested)
        else:
            granted = {addr: bps * cap // total for addr, bps in requested.items()}
        self.engine.emit(
            "admit",
            master,
            granted={str(addr): bps for addr, bps in granted.items()},
            cap_bps=cap,
            requested_bps=total,
        )
        return granted

    # -- invariants ----------------------------------------------------------

    def topology_violations(self) -> list[str]:
        """Structural checks; an empty list means the topology is sound."""
        problems = []
        for address, filed in self._links_of.items():
            for link in filed:
                if address != link.master.address and address != link.slave.address:
                    problems.append(f"link {link.pair} misfiled under {address}")
            slaves = len(self.piconet(address))
            if slaves > MAX_SLAVES:
                problems.append(f"piconet of {address} has {slaves} slaves")
        for (a, b), link in self.links.items():
            if pair_key(link.master.address, link.slave.address) != (a, b):
                problems.append(f"link endpoints do not match key {(a, b)}")
        return problems

"""One table of the fast paths in ``hdpsim`` that tests turn off.

Each fast path skips work whose outcome is known, and must leave the trace
bytes and the generator state as the plain path leaves them. An entry names
the method that decides whether the fast path is taken, or that takes it,
and a stand-in that always declines it:

- ``settle``: ``DiscoveryManager._settle`` declines, so every inquiry cycle
  runs as events; with it on, a settled run draws the first cycle of each
  stretch between scan window changes through ``Engine.draw``, and the
  later ones in one loop of loss draws if, at the first, the medium is
  lossy, every neighbour hears every slot through its scan and answers
  until the deadline, and the inquirer hears each slot's responses;
- ``quiet_slots``: ``DiscoveryManager._quiet`` is False, so every sweep slot
  is broadcast;
- ``keepalive_elision``: ``LinkManager._elides_keepalive`` is False, so every
  keepalive is sent as a frame, lossy media included, and no exchange is
  settled after its tick;
- ``reading_memo``: ``HdpManager._encode`` builds and encodes a
  ``Measurement`` for every reading, so no readings are reused;
- ``wire_cipher``: ``McapManager._wire_observed`` is True, so every data
  frame on an authenticated link is enciphered and deciphered, whether or
  not a raw-frame tap can read it;
- ``hop_cache``: ``Link.frequency_at`` computes ``hop_frequency`` for every
  frame, listen check and keepalive draw, with no per-slot cache;
- ``neighbour_lists``: ``Engine.neighbours`` scans every registered device
  for each inquiry frame and settled run, with no list kept between moves.

``off`` patches the classes, so it reaches every stack used inside it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

from hdpsim.discovery import DiscoveryManager
from hdpsim.engine import Engine
from hdpsim.hdp import HdpManager, Measurement
from hdpsim.link import Link, LinkManager, hop_frequency
from hdpsim.mcap import McapManager

# name -> (class, method, the stand-in that declines the fast path)
FAST_PATHS: dict[str, tuple[type, str, Callable]] = {
    "settle": (DiscoveryManager, "_settle", lambda self, inquiry, slots: False),
    "quiet_slots": (DiscoveryManager, "_quiet", lambda self, inquiry, t: False),
    "keepalive_elision": (LinkManager, "_elides_keepalive", lambda self, link: False),
    "reading_memo": (
        HdpManager,
        "_encode",
        lambda self, assoc, seq, local_us, readings: Measurement.build(
            assoc.specialization, seq, local_us, readings
        ).encode(),
    ),
    "wire_cipher": (McapManager, "_wire_observed", lambda self: True),
    "hop_cache": (Link, "frequency_at", lambda self, t: hop_frequency(self.params, t)),
    "neighbour_lists": (
        Engine,
        "neighbours",
        lambda self, sender: [
            d for d in self.devices.values() if d is not sender and self.in_range(sender, d)
        ],
    ),
}


@contextlib.contextmanager
def off(*names: str) -> Iterator[None]:
    """Turn the named fast paths off, all of them when none is named, and
    restore them on exit."""
    with contextlib.ExitStack() as stack:
        for name in names or FAST_PATHS:
            owner, method, stand_in = FAST_PATHS[name]
            stack.callback(setattr, owner, method, vars(owner)[method])
            setattr(owner, method, stand_in)
        yield

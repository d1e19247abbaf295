"""One table of the fast paths in ``hdpsim`` that tests turn off.

Each fast path skips work whose outcome is known, and must leave the trace
bytes and the generator state as the plain path leaves them. An entry names
the method that decides whether the fast path is taken and a stand-in that
always declines it:

- ``settle``: ``DiscoveryManager._settle`` declines, so every inquiry cycle
  runs as events;
- ``quiet_slots``: ``DiscoveryManager._quiet`` is False, so every sweep slot
  is broadcast;
- ``keepalive_elision``: ``LinkManager._elides_keepalive`` is False, so every
  keepalive is sent as a frame.

``off`` patches the classes, so it reaches every stack used inside it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

from hdpsim.discovery import DiscoveryManager
from hdpsim.link import LinkManager

# name -> (class, method, the stand-in that declines the fast path)
FAST_PATHS: dict[str, tuple[type, str, Callable]] = {
    "settle": (DiscoveryManager, "_settle", lambda self, inquiry, slots: False),
    "quiet_slots": (DiscoveryManager, "_quiet", lambda self, inquiry, t: False),
    "keepalive_elision": (LinkManager, "_elides_keepalive", lambda self, link: False),
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

"""Link security: PIN pairing, challenge-response auth, payload ciphering.

These are structural stand-ins for the radio security algorithms, not the
real primitives: every keyed computation is HMAC-SHA256 truncated to 16
bytes with a domain-separation prefix. What the model preserves is the
shape that matters to the protocol: an initialization key derived from a
shared PIN, the claimant address, and a public random value; mutual
challenge-response authentication that fails on any PIN mismatch and does
not admit replays; and a symmetric keystream cipher parameterized by the
link key and clock so that both ends compute the same stream.

Every keyed computation is one PRF that copies HMAC-SHA256 state keyed once
(RFC 2104's inner and outer hashes after the padded key). A ``LinkKey`` keys
its state when made, and ``apply_cipher`` copies it for every keystream block
in its own loop, with no call per block. ``mcap`` makes a data frame's stream
only while a raw-frame tap can read the frame; no trace line or metric
depends on it.
"""

from __future__ import annotations

import enum
import hmac
import hashlib
import random
from dataclasses import dataclass

from .core import DeviceAddress, SimTime

KEY_LEN = 16
CHALLENGE_LEN = 16
_INIT_PREFIX = b"E22"
_AUTH_PREFIX = b"AUTH"
_CIPHER_PREFIX = b"E0"
_BLOCK_LEN = 64  # SHA-256 block size, the HMAC key block


class EmptyPin(ValueError):
    """Pairing needs a non-empty PIN."""


class NotAuthenticated(Exception):
    """Operation requires a completed mutual authentication."""


@dataclass(frozen=True)
class Pin:
    """Shared pairing secret, 1 to 16 bytes."""

    value: bytes

    def __post_init__(self):
        if not self.value:
            raise EmptyPin("pin must not be empty")
        if len(self.value) > 16:
            raise ValueError(f"pin must be at most 16 bytes, got {len(self.value)}")

    @classmethod
    def from_text(cls, text: str) -> "Pin":
        return cls(text.encode("utf-8"))


@dataclass(frozen=True)
class LinkKey:
    """128-bit symmetric key shared by one device pair."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != KEY_LEN:
            raise ValueError(f"link key must be {KEY_LEN} bytes")
        # Keyed PRF state for the keystream; an attribute, not a field.
        object.__setattr__(self, "_state", _keyed_state(self.value))

    def hash8(self) -> str:
        """Short correlation tag for traces; never the key itself."""
        return hashlib.sha256(self.value).hexdigest()[:8]


def _keyed_state(key: bytes) -> tuple:
    """HMAC-SHA256 inner and outer hash states keyed with ``key``."""
    if len(key) > _BLOCK_LEN:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK_LEN, b"\0")
    inner, outer = key.translate(hmac.trans_36), key.translate(hmac.trans_5C)
    return hashlib.sha256(inner), hashlib.sha256(outer)


def keyed_prf(key: bytes, message: bytes) -> bytes:
    """16-byte keyed pseudo-random value used by every security operation."""
    inner, outer = _keyed_state(key)
    inner.update(message)
    outer.update(inner.digest())
    return outer.digest()[:KEY_LEN]


def derive_init_key(pin: Pin, claimant: DeviceAddress, rand: bytes) -> LinkKey:
    """Initialization key from the PIN, claimant address, and public random.

    Both sides of a pairing must arrive at the same key, which they do only
    when their PINs match: the PIN and the claimant's canonical address text
    form the secret key material, the random value the public message.
    """
    if len(rand) != CHALLENGE_LEN:
        raise ValueError(f"rand must be {CHALLENGE_LEN} bytes")
    secret = pin.value + str(claimant).encode("utf-8")
    return LinkKey(keyed_prf(secret, _INIT_PREFIX + rand))


def auth_response(key: LinkKey, challenge: bytes, claimant: DeviceAddress) -> bytes:
    """Claimant's answer to one authentication challenge."""
    return keyed_prf(key.value, _AUTH_PREFIX + challenge + claimant.to_bytes())


class AuthOutcome(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"


def authenticate(
    key_a: LinkKey,
    key_b: LinkKey,
    addr_a: DeviceAddress,
    addr_b: DeviceAddress,
    rng: random.Random,
) -> AuthOutcome:
    """Mutual challenge-response: each side verifies the other.

    ``key_a``/``key_b`` are the keys the two sides independently derived;
    authentication succeeds only when both directions check out, which
    requires the keys to be equal. Challenges are drawn fresh from ``rng``,
    so a recorded response never validates again.
    """
    challenge_1 = rng.randbytes(CHALLENGE_LEN)
    response_1 = auth_response(key_b, challenge_1, addr_b)
    expected_1 = auth_response(key_a, challenge_1, addr_b)
    challenge_2 = rng.randbytes(CHALLENGE_LEN)
    response_2 = auth_response(key_a, challenge_2, addr_a)
    expected_2 = auth_response(key_b, challenge_2, addr_a)
    ok = hmac.compare_digest(response_1, expected_1) and hmac.compare_digest(
        response_2, expected_2
    )
    return AuthOutcome.SUCCESS if ok else AuthOutcome.FAILURE


def keystream(key: LinkKey, clock_us: SimTime, length: int) -> bytes:
    """Deterministic cipher stream for one payload at one clock value."""
    return apply_cipher(key, clock_us, bytes(length))


def apply_cipher(key: LinkKey, clock_us: SimTime, payload: bytes) -> bytes:
    """XOR the payload with the link keystream; applying twice restores it.

    The stream is the PRF of the clock and a 4-byte block counter, one
    16-byte block at a time, made in one loop over the key's two keyed
    states.
    """
    n = len(payload)
    inner, outer = key._state
    seed = _CIPHER_PREFIX + clock_us.to_bytes(8, "big", signed=True)
    stream = b""
    for i in range(-(-n // KEY_LEN)):
        block = inner.copy()
        block.update(seed + i.to_bytes(4, "big"))
        mac = outer.copy()
        mac.update(block.digest())
        stream += mac.digest()[:KEY_LEN]
    return (int.from_bytes(payload, "big") ^ int.from_bytes(stream[:n], "big")).to_bytes(n, "big")

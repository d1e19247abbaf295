from __future__ import annotations

import hashlib
import hmac
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hdpsim.core import DeviceAddress
from hdpsim.security import (
    AuthOutcome,
    EmptyPin,
    LinkKey,
    Pin,
    apply_cipher,
    auth_response,
    authenticate,
    derive_init_key,
    keyed_prf,
    keystream,
)

ADDR_A = DeviceAddress.parse("AA:00:00:00:00:01")
ADDR_B = DeviceAddress.parse("AA:00:00:00:00:02")


def test_pin_accepts_1_to_16_bytes():
    Pin.from_text("1")
    Pin.from_text("x" * 16)
    with pytest.raises(EmptyPin):
        Pin.from_text("")
    with pytest.raises(ValueError):
        Pin.from_text("x" * 17)


def test_keyed_prf_is_truncated_hmac_sha256():
    key, msg = b"k" * 16, b"message"
    expected = hmac.new(key, msg, hashlib.sha256).digest()[:16]
    assert keyed_prf(key, msg) == expected
    assert len(keyed_prf(key, msg)) == 16


def test_init_key_derivation_matches_pinned_vector():
    # Frozen: HMAC-SHA256(pin || claimant text, "E22" || rand16)[:16]
    key = derive_init_key(Pin.from_text("1234"), ADDR_A, bytes(range(16)))
    assert key.value.hex() == "f32e31cff3cd1ad29727b6e70ca2d439"


def test_auth_response_matches_pinned_vector():
    # Frozen: HMAC-SHA256(key, "AUTH" || challenge || claimant addr bytes)[:16]
    key = LinkKey(bytes.fromhex("f32e31cff3cd1ad29727b6e70ca2d439"))
    response = auth_response(key, bytes(range(16, 32)), ADDR_A)
    assert response.hex() == "592768e6c81b42ea87eb3720c3237924"


def test_keystream_matches_pinned_vector():
    # Frozen: block i = HMAC-SHA256(key, "E0" || clock i64be || i u32be)[:16]
    key = LinkKey(bytes.fromhex("f32e31cff3cd1ad29727b6e70ca2d439"))
    assert keystream(key, 777, 32).hex() == (
        "b7989d3d9a03c52ba11e2940634df6f3766a9a8973560247ab36e5a84c2221f0"
    )


def test_init_key_depends_on_pin_claimant_and_rand():
    rand = bytes(16)
    base = derive_init_key(Pin.from_text("1234"), ADDR_A, rand)
    assert derive_init_key(Pin.from_text("1235"), ADDR_A, rand) != base
    assert derive_init_key(Pin.from_text("1234"), ADDR_B, rand) != base
    assert derive_init_key(Pin.from_text("1234"), ADDR_A, b"\x01" * 16) != base


def test_mutual_auth_succeeds_with_equal_keys():
    key = derive_init_key(Pin.from_text("1234"), ADDR_A, bytes(16))
    outcome = authenticate(key, key, ADDR_A, ADDR_B, random.Random(1))
    assert outcome is AuthOutcome.SUCCESS


def test_mutual_auth_fails_with_unequal_keys():
    rand = bytes(16)
    key_a = derive_init_key(Pin.from_text("1234"), ADDR_A, rand)
    key_b = derive_init_key(Pin.from_text("9999"), ADDR_A, rand)
    outcome = authenticate(key_a, key_b, ADDR_A, ADDR_B, random.Random(1))
    assert outcome is AuthOutcome.FAILURE


def test_challenges_are_drawn_fresh_from_rng():
    # Challenges come out of the shared generator, so every run uses new
    # ones and a recorded response never answers a later challenge.
    key = derive_init_key(Pin.from_text("1234"), ADDR_A, bytes(16))
    rng = random.Random(7)
    state = rng.getstate()
    authenticate(key, key, ADDR_A, ADDR_B, rng)
    assert rng.getstate() != state
    challenge_1, challenge_2 = rng.randbytes(16), rng.randbytes(16)
    assert auth_response(key, challenge_1, ADDR_A) != auth_response(
        key, challenge_2, ADDR_A
    )


@given(st.binary(max_size=512), st.integers(min_value=0, max_value=2**40))
def test_cipher_is_self_inverse(payload, clock):
    key = LinkKey(b"\x5a" * 16)
    once = apply_cipher(key, clock, payload)
    assert apply_cipher(key, clock, once) == payload


def test_cipher_output_depends_on_clock():
    key = LinkKey(b"\x5a" * 16)
    payload = b"measurement payload"
    assert apply_cipher(key, 1, payload) != apply_cipher(key, 2, payload)


def test_keystream_length_and_extension():
    key = LinkKey(b"\x11" * 16)
    short = keystream(key, 5, 10)
    long = keystream(key, 5, 40)
    assert len(short) == 10 and len(long) == 40
    assert long[:10] == short


def test_link_key_hash_tag_is_stable():
    key = LinkKey(b"\x22" * 16)
    assert key.hash8() == hashlib.sha256(key.value).hexdigest()[:8]


def _reference_cipher(key: LinkKey, clock: int, payload: bytes) -> bytes:
    """The cipher as first written: one ``hmac.new`` per block, XOR per byte."""
    stream = b""
    block = 0
    while len(stream) < len(payload):
        seed = b"E0" + clock.to_bytes(8, "big", signed=True) + block.to_bytes(4, "big")
        stream += hmac.new(key.value, seed, hashlib.sha256).digest()[:16]
        block += 1
    return bytes(p ^ s for p, s in zip(payload, stream))


@pytest.mark.parametrize("clock", [0, 1, 777, 2**40 + 3, -5_000, 2**63 - 1])
def test_cipher_and_keystream_equal_the_per_block_hmac_reference(clock):
    key = LinkKey(bytes.fromhex("f32e31cff3cd1ad29727b6e70ca2d439"))
    payload = bytes((7 + i) % 256 for i in range(4096))
    # page_size_bytes is a scenario parameter: the block counter runs on at any length.
    for n in [*range(81), 1024, 1025, 4096]:
        expected = _reference_cipher(key, clock, payload[:n])
        assert apply_cipher(key, clock, payload[:n]) == expected, n
        assert keystream(key, clock, n) == _reference_cipher(key, clock, bytes(n)), n


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from([0, 1, 777, -5]), st.binary(max_size=40)),
        max_size=30,
    )
)
def test_interleaved_ciphers_over_two_keys_equal_the_uncached_keystream(calls):
    # Equal and different clocks and lengths alternate over two keys, and a
    # used key's stream equals a fresh key's.
    raw = (b"\x5a" * 16, bytes.fromhex("f32e31cff3cd1ad29727b6e70ca2d439"))
    keys = [LinkKey(value) for value in raw]
    for which, clock, payload in calls:
        uncached = keystream(LinkKey(raw[which]), clock, len(payload))
        assert keystream(keys[which], clock, len(payload)) == uncached
        assert apply_cipher(keys[which], clock, payload) == _reference_cipher(
            keys[which], clock, payload
        )


@given(
    st.lists(
        st.tuples(st.sampled_from([0, 1, 777]), st.binary(max_size=40), st.booleans()),
        max_size=30,
    )
)
def test_cached_cipher_answers_equal_the_reference(calls):
    # Each call ciphers a fresh payload or the last output, as the receiver
    # of a frame deciphers the sender's output at the sender's clock.
    key = LinkKey(bytes.fromhex("f32e31cff3cd1ad29727b6e70ca2d439"))
    last = b""
    for clock, payload, decipher_last in calls:
        data = last if decipher_last else payload
        last = apply_cipher(key, clock, data)
        assert last == _reference_cipher(key, clock, data)


@given(st.binary(max_size=100), st.binary(max_size=100))
@example(bytes(0), b"m")
@example(bytes(range(16)), b"m")
@example(bytes(range(64)), b"m")
@example(bytes(range(65)), b"m")  # the first key length that is hashed first
@example(bytes(range(100)), b"m")
def test_keyed_prf_equals_hmac_for_any_key_length(key, msg):
    # Keys longer than the 64-byte SHA-256 block are hashed first (RFC 2104).
    assert keyed_prf(key, msg) == hmac.new(key, msg, hashlib.sha256).digest()[:16]


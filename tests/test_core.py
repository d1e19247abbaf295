from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdpsim.core import (
    DeviceAddress,
    DeviceConfig,
    DeviceName,
    DuplicateAddress,
    InvalidDeviceName,
    MalformedAddress,
    decode_name,
    encode_name,
    format_address,
    parse_address,
)
from hdpsim.engine import Engine


@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_address_text_roundtrip(value):
    address = DeviceAddress(value)
    assert parse_address(format_address(address)) == address


@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_address_bytes_roundtrip(value):
    address = DeviceAddress(value)
    assert DeviceAddress.from_bytes(address.to_bytes()) == address
    assert len(address.to_bytes()) == 6


def test_address_parse_is_case_insensitive():
    assert parse_address("aa:bb:cc:dd:ee:ff") == parse_address("AA:BB:CC:DD:EE:FF")


def test_address_canonical_form_is_uppercase_colon_hex():
    assert str(DeviceAddress(0x0A1B2C3D4E5F)) == "0A:1B:2C:3D:4E:5F"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "AA:BB:CC:DD:EE",
        "AA:BB:CC:DD:EE:FF:00",
        "AABBCCDDEEFF",
        "GG:BB:CC:DD:EE:FF",
        "A:BB:CC:DD:EE:FF",
        "AA-BB-CC-DD-EE-FF",
    ],
)
def test_address_parse_rejects_malformed(text):
    with pytest.raises(MalformedAddress):
        parse_address(text)


def test_address_value_range_checked():
    with pytest.raises(MalformedAddress):
        DeviceAddress(-1)
    with pytest.raises(MalformedAddress):
        DeviceAddress(2**48)


def test_address_ordering_is_total():
    addresses = [DeviceAddress(3), DeviceAddress(1), DeviceAddress(2)]
    assert sorted(addresses) == [DeviceAddress(1), DeviceAddress(2), DeviceAddress(3)]


@given(st.lists(st.integers(min_value=0, max_value=2**48 - 1), max_size=20))
def test_address_hash_eq_and_order_follow_the_value(values):
    addresses = [DeviceAddress(v) for v in values]
    twins = [DeviceAddress(v) for v in values]
    for a, b in zip(addresses, twins):
        assert a == b and hash(a) == hash(b) and a is not b
        assert not a != b
    assert [a.value for a in sorted(addresses)] == sorted(values)
    assert set(addresses) == set(twins) and len(set(addresses)) == len(set(values))


def test_address_never_equals_its_integer_or_text():
    assert DeviceAddress(1) != 1 and 1 != DeviceAddress(1)
    assert DeviceAddress(1) != "00:00:00:00:00:01"
    assert DeviceAddress(1) in {DeviceAddress(1)} and 1 not in {DeviceAddress(1)}


def test_address_text_is_canonical_before_and_after_first_use():
    address = DeviceAddress(0x0A1B2C3D4E5F)
    assert str(address) == "0A:1B:2C:3D:4E:5F"  # formatted now
    assert str(address) == f"{address}" == format_address(address)  # kept
    # The kept text is no field: repr, equality and hash ignore it.
    assert repr(address) == "DeviceAddress(value=11111822610015)"
    assert address == DeviceAddress(0x0A1B2C3D4E5F) and hash(address) == 0x0A1B2C3D4E5F


def test_address_is_frozen():
    address = DeviceAddress(5)
    str(address)
    for name in ("value", "_text"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(address, name, 6)
    assert address.value == 5 and str(address) == "00:00:00:00:00:05"


def test_device_name_limit_is_248_utf8_bytes():
    DeviceName("x" * 248)
    with pytest.raises(InvalidDeviceName):
        DeviceName("x" * 249)
    # 83 three-byte characters = 249 bytes
    with pytest.raises(InvalidDeviceName):
        DeviceName("€" * 83)


@given(st.text(max_size=60))
def test_name_wire_roundtrip(text):
    name = DeviceName(text)
    buffer = encode_name(name) + b"tail"
    decoded, next_offset = decode_name(buffer)
    assert decoded == name
    assert buffer[next_offset:] == b"tail"


def test_local_time_applies_clock_offset():
    config = DeviceConfig(
        address=DeviceAddress(1),
        name=DeviceName("a"),
        position=(0.0, 0.0),
        radio_range_m=10.0,
        clock_offset_us=1500,
    )
    assert config.local_time(0) == 1500
    assert config.local_time(100) == 1600


def test_registry_rejects_duplicate_address():
    engine = Engine()
    engine.add_device(DeviceConfig(address=DeviceAddress(1)))
    with pytest.raises(DuplicateAddress):
        engine.add_device(DeviceConfig(address=DeviceAddress(1)))
    assert DeviceAddress(1) in engine.devices
    assert len(engine.devices) == 1

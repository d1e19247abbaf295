"""One table of bad arguments to the public API, one row per argument check:
each call is refused with the check's exception and message."""

from __future__ import annotations

import pytest

from hdpsim.core import DeviceAddress, DeviceConfig, MalformedAddress
from hdpsim.engine import FrameKind, RadioFrame, TypedEvent, UnknownDevice
from hdpsim.hdp import HdpError, InvalidMeasurement, Measurement, Specialization, UnknownMetric
from hdpsim.link import ConnectionParams, LinkError
from hdpsim.params import ParamError, SimParams
from hdpsim.security import LinkKey, Pin, derive_init_key

from conftest import add_device, addr, make_stack, paired_pair

CASES = {}


def case(error: type, match: str):
    """File the function under its name: calling it raises ``error``."""

    def register(fn):
        CASES[fn.__name__] = (fn, error, match)
        return fn

    return register


def one_device():
    stack = make_stack()
    return stack, add_device(stack, 1)


def pair_with_control():
    stack = make_stack()
    a, b, link = paired_pair(stack)
    stack.mcap.open_control_channel(a, b)
    return stack, a, b, link


@case(MalformedAddress, "expected 6 address bytes, got 5")
def address_from_five_bytes():
    DeviceAddress.from_bytes(bytes(5))


@case(ValueError, "radio_range_m must be >= 0")
def negative_radio_range():
    DeviceConfig(addr(1), radio_range_m=-1.0)


@case(ValueError, "duration_us must be positive")
def inquiry_of_no_duration():
    stack, device = one_device()
    stack.discovery.start_inquiry(device, 0)


@case(ValueError, "at most one bool field")
def typed_event_with_two_flags():
    TypedEvent("twice", (("a", bool), ("b", bool)))


@case(UnknownDevice, "AA:00:00:00:00:09")
def broadcast_from_an_unregistered_sender():
    stack, _device = one_device()
    stranger = add_device(make_stack(), 9)  # registered on another engine
    stack.engine.broadcast(RadioFrame(stranger.address, 0, FrameKind.PAGE), stranger)


@case(InvalidMeasurement, "duplicate metric mass_kg")
def measurement_with_a_metric_twice():
    Measurement(Specialization.SCALE, 1, 0, (("mass_kg", 700), ("mass_kg", 710)))


@case(InvalidMeasurement, "mass_kg value out of range")
def measurement_value_past_32_bits():
    Measurement(Specialization.SCALE, 1, 0, (("mass_kg", 2**31),))


@case(UnknownMetric, "spo2_pct")
def value_of_a_metric_not_carried():
    Measurement(Specialization.SCALE, 1, 0, (("mass_kg", 700),)).value("spo2_pct")


@case(ValueError, "role must be 'source' or 'sink'")
def role_of_neither_kind():
    stack, device = one_device()
    stack.hdp.set_role(device.address, "relay")


@case(HdpError, "AA:00:00:00:00:01 is not a source")
def associate_from_a_sink():
    stack, a, b, _link = pair_with_control()
    stack.hdp.set_role(a.address, "sink")
    stack.hdp.associate(a, b, Specialization.SCALE)


@case(HdpError, "AA:00:00:00:00:02 is not a sink")
def associate_to_a_source():
    stack, a, b, _link = pair_with_control()
    stack.hdp.set_role(b.address, "source")
    stack.hdp.associate(a, b, Specialization.SCALE)


@case(ValueError, "hop_seed out of range")
def hop_seed_past_64_bits():
    ConnectionParams(2**64, 0, 31, 625, 1024)


@case(ValueError, "frequency range must satisfy")
def frequency_range_upside_down():
    ConnectionParams(1, 5, 4, 625, 1024)


@case(ValueError, "frequency range must satisfy")
def frequency_past_31():
    ConnectionParams(1, 0, 32, 625, 1024)


@case(ValueError, "hop_interval_us must be positive")
def hop_interval_of_zero():
    ConnectionParams(1, 0, 31, 0, 1024)


@case(ValueError, "page_size_bytes must be positive")
def page_size_of_zero():
    ConnectionParams(1, 0, 31, 625, 0)


@case(ValueError, "rate cap must be positive")
def rate_cap_of_zero():
    stack, device = one_device()
    stack.links.set_rate_cap(device.address, 0)


@case(LinkError, "no link between")
def drop_of_no_link():
    stack, device = one_device()
    stack.links.drop_link(device.address, addr(2))


@case(LinkError, "cannot switch roles on a lost link")
def role_switch_of_a_lost_link():
    stack = make_stack()
    a, b, link = paired_pair(stack)
    stack.links.drop_link(a.address, b.address)
    stack.links.role_switch(link)


@case(LinkError, "AA:00:00:00:00:01 does not master a piconet")
def admit_traffic_at_no_master():
    stack, device = one_device()
    stack.links.admit_traffic(device.address, {})


@case(ValueError, "requested rate must be non-negative")
def admit_a_negative_rate():
    stack = make_stack()
    _a, _b, link = paired_pair(stack)
    stack.links.admit_traffic(link.master.address, {link.slave.address: -1})


@case(ParamError, "inquiry_slot_us must be at least 1")
def param_below_its_floor():
    SimParams(inquiry_slot_us=0)


@case(ValueError, "link key must be 16 bytes")
def link_key_of_15_bytes():
    LinkKey(bytes(15))


@case(ValueError, "rand must be 16 bytes")
def pairing_random_of_15_bytes():
    derive_init_key(Pin.from_text("1234"), addr(1), bytes(15))


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_bad_argument_is_refused(name):
    call, error, match = CASES[name]
    with pytest.raises(error, match=match):
        call()

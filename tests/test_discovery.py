from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpsim import discovery
from hdpsim.core import decode_name
from hdpsim.discovery import (
    ConnectabilityMode,
    DiscoverabilityMode,
    InquiryInProgress,
    ScanSchedule,
    scan_frequency,
    sweep_slots,
)
from hdpsim.params import SimParams

from conftest import add_device, addr, make_stack


def test_scan_frequency_cycles_over_32():
    assert [scan_frequency(w) for w in (0, 1, 31, 32, 33)] == [0, 1, 31, 0, 1]


def test_scan_schedule_changes_frequency_every_window():
    schedule = ScanSchedule(window_us=1_280_000)
    assert schedule.frequency_at(0) == 0
    assert schedule.frequency_at(1_279_999) == 0
    assert schedule.frequency_at(1_280_000) == 1
    assert schedule.full_sweep_us() == 40_960_000


@settings(max_examples=60, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=41_000_000),
    cycle_index=st.integers(min_value=0, max_value=5000),
)
def test_sweep_slots_matches_per_frame_listening_check(offset, cycle_index):
    # Oracle: a transmission on frequency f at slot time t is heard iff the
    # listener's scan frequency at local time t is f. The analytic per-cycle
    # slot list must contain exactly the hearable slots.
    params = SimParams()
    schedule = ScanSchedule(params.scan_window_us)
    cycle_start = cycle_index * params.inquiry_cycle_us
    expected = []
    for freq in range(32):
        slot = cycle_start + freq * params.inquiry_slot_us
        if schedule.frequency_at(slot + offset) == freq:
            expected.append((slot, freq))
    assert sweep_slots(params, schedule, offset, cycle_start, cycle_start + 10_000) == expected


def test_sweep_slots_respects_not_after():
    params = SimParams()
    schedule = ScanSchedule(params.scan_window_us)
    full = sweep_slots(params, schedule, 0, 0, 10_000)
    assert full == [(0, 0)]
    assert sweep_slots(params, schedule, 0, 0, 0) == []


def test_inquiry_discovers_in_range_device():
    stack = make_stack()
    scanner = add_device(stack, 1, position=(0.0, 0.0), clock_offset_us=123_456)
    inquirer = add_device(stack, 2, position=(2.0, 0.0))
    inquiry = stack.discovery.start_inquiry(inquirer, 200_000)
    stack.engine.run_until(250_000)
    assert inquiry.done
    assert [r.address for r in inquiry.results] == [scanner.address]
    assert str(inquiry.results[0].name) == "dev1"
    assert stack.discovery.knows(inquirer.address, scanner.address)


def test_inquiry_result_has_discovery_time_and_dedup(monkeypatch):
    decoded = []
    monkeypatch.setattr(
        discovery, "decode_name", lambda data: decoded.append(1) or decode_name(data)
    )
    stack = make_stack()
    add_device(stack, 1)
    inquirer = add_device(stack, 2, position=(1.0, 0.0))
    inquiry = stack.discovery.start_inquiry(inquirer, 100_000)
    stack.engine.run_until(150_000)
    # Many cycles hit the same scanner; it must appear exactly once, and only
    # its first response has its name decoded.
    assert len(inquiry.results) == 1
    assert len(decoded) == 1
    assert 0 < inquiry.results[0].discovered_at <= 100_000
    responses = [e for e in stack.engine.trace if e.ev == "inquiry_resp"]
    assert len(responses) == 1


def test_out_of_range_device_is_not_discovered():
    stack = make_stack()
    add_device(stack, 1, position=(100.0, 0.0))
    inquirer = add_device(stack, 2)
    inquiry = stack.discovery.start_inquiry(inquirer, 100_000)
    stack.engine.run_until(150_000)
    assert inquiry.results == []


def test_non_discoverable_device_never_responds():
    stack = make_stack()
    hidden = add_device(stack, 1)
    inquirer = add_device(stack, 2, position=(1.0, 0.0))
    stack.discovery.set_discoverability(hidden, DiscoverabilityMode.NON_DISCOVERABLE)
    inquiry = stack.discovery.start_inquiry(inquirer, 200_000)
    stack.engine.run_until(250_000)
    assert inquiry.results == []


def test_limited_mode_requires_window():
    stack = make_stack()
    device = add_device(stack, 1)
    with pytest.raises(ValueError):
        stack.discovery.set_discoverability(device, DiscoverabilityMode.LIMITED)


def test_limited_device_stops_responding_after_window():
    stack = make_stack()
    limited = add_device(stack, 1)
    inquirer = add_device(stack, 2, position=(1.0, 0.0))
    stack.discovery.set_discoverability(
        limited, DiscoverabilityMode.LIMITED, window_us=50_000
    )
    first = stack.discovery.start_inquiry(inquirer, 30_000)
    stack.engine.run_until(40_000)
    assert [r.address for r in first.results] == [limited.address]
    stack.engine.run_until(60_000)
    second = stack.discovery.start_inquiry(inquirer, 30_000)
    stack.engine.run_until(100_000)
    assert second.results == []


def test_concurrent_inquiry_rejected_then_allowed_after_finish():
    stack = make_stack()
    inquirer = add_device(stack, 1)
    add_device(stack, 2, position=(1.0, 0.0))
    stack.discovery.start_inquiry(inquirer, 50_000)
    with pytest.raises(InquiryInProgress):
        stack.discovery.start_inquiry(inquirer, 50_000)
    stack.engine.run_until(60_000)
    stack.discovery.start_inquiry(inquirer, 10_000)


def test_connectability_is_independent_of_discoverability():
    stack = make_stack()
    device = add_device(stack, 1)
    stack.discovery.set_connectability(device, ConnectabilityMode.NON_CONNECTABLE)
    assert not stack.discovery.is_connectable(device.address)
    assert stack.discovery.discoverability(device) is DiscoverabilityMode.DISCOVERABLE


def test_inquiry_trace_events_have_counts():
    stack = make_stack()
    add_device(stack, 1)
    inquirer = add_device(stack, 2, position=(1.0, 0.0))
    stack.discovery.start_inquiry(inquirer, 50_000)
    stack.engine.run_until(100_000)
    done = [e for e in stack.engine.trace if e.ev == "inquiry_done"]
    assert done and done[0].detail["found"] == 1
    assert done[0].dev == str(addr(2))


@pytest.mark.parametrize("neighbours", [0, 1])
def test_an_inquiry_past_its_deadline_stops_cycling(neighbours):
    """The cycle event that falls at or after the deadline queues no next
    cycle, so nothing of the inquiry is pending once it is done."""
    stack = make_stack()
    inquirer = add_device(stack, 1)
    for i in range(neighbours):
        add_device(stack, 2 + i, position=(1.0, 0.0))
    inquiry = stack.discovery.start_inquiry(inquirer, 25_000)  # cycles at 0, 10 and 20 ms
    stack.engine.run_until(1_000_000)
    assert inquiry.done and len(inquiry.results) == neighbours
    assert stack.engine.pending_events == 0

from __future__ import annotations

import contextlib
import enum
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdpsim import engine as engine_module
from hdpsim.cli import demo_scenario
from hdpsim.core import MAX_ADDRESS, DeviceAddress, DeviceConfig
from hdpsim.discovery import DiscoverabilityMode, sweep_slots
from hdpsim.engine import (
    Engine,
    FrameKind,
    MediumModel,
    RadioFrame,
    SchedulingInPast,
    TYPED,
    TYPED_EVENTS,
    Trace,
    TraceEvent,
    UnknownDevice,
    trace_line,
)
from hdpsim.link import LinkState
from hdpsim.metrics import metrics_json
from hdpsim.runner import ScenarioRun, run_scenario
from hdpsim.scenario import load_scenario, validate_scenario

import fastpaths
from conftest import add_device, addr, make_stack


def test_events_run_in_time_then_insertion_order():
    engine = Engine()
    seen = []
    engine.schedule(20, lambda: seen.append("b"))
    engine.schedule(10, lambda: seen.append("a"))
    engine.schedule(20, lambda: seen.append("c"))
    engine.run_until(30)
    assert seen == ["a", "b", "c"]
    assert engine.now == 30


def test_schedule_at_now_is_allowed_but_past_is_not():
    engine = Engine()
    engine.run_until(100)
    engine.schedule(100, lambda: None)
    with pytest.raises(SchedulingInPast):
        engine.schedule(99, lambda: None)


def test_cancel_prevents_execution():
    engine = Engine()
    seen = []
    handle = engine.schedule(10, lambda: seen.append("x"))
    engine.cancel(handle)
    engine.run_until(20)
    assert seen == []


def test_run_until_does_not_execute_later_events():
    engine = Engine()
    seen = []
    engine.schedule(50, lambda: seen.append("later"))
    engine.run_until(49)
    assert seen == []
    assert engine.pending_events == 1
    engine.run_until(50)
    assert seen == ["later"]


# -- the queue's contract: int keys ``at << 64 | event_id`` -------------------


def test_ties_fire_in_id_order_a_reserved_id_ahead_of_those_queued_first():
    engine = Engine()
    seen = []
    reserved = engine.reserve_ids(1)
    first = engine.schedule(10, lambda: seen.append("first queued"))
    engine.schedule(10, lambda: seen.append("second queued"))
    engine.schedule(9, lambda: seen.append("earlier"))
    key = engine.schedule_as(reserved, 10, lambda: seen.append("reserved"))
    assert key == 10 << 64 | reserved and first == 10 << 64 | reserved + 1
    assert engine.reserve_ids(0) == reserved + 4  # schedule_as issued no new id
    engine.run_until(10)
    assert seen == ["earlier", "reserved", "first queued", "second queued"]


def test_cancel_of_a_fired_cancelled_or_never_issued_key_changes_nothing():
    engine = Engine()
    seen = []
    fired = engine.schedule(1, lambda: seen.append("fired"))
    engine.run_until(1)
    engine.schedule(5, lambda: seen.append("kept"))
    dropped = engine.schedule(5, lambda: seen.append("dropped"))
    engine.cancel(dropped)
    assert engine.pending_events == 1
    for key in (fired, dropped, dropped, 5 << 64 | 99, -1):
        engine.cancel(key)
        assert engine.pending_events == 1
    engine.run_until(5)
    assert seen == ["fired", "kept"] and engine.pending_events == 0


def test_settle_limit_counts_a_cancelled_key_at_the_top_of_the_heap():
    engine = Engine()
    limits = []
    engine.schedule(10, lambda: limits.append(engine.settle_limit()))
    cancelled = engine.schedule(20, lambda: None)
    engine.schedule(30, lambda: limits.append(engine.settle_limit()))
    engine.cancel(cancelled)
    assert engine.settle_limit() == float("-inf")  # outside run_until
    engine.run_until(100)
    # At 30 the heap is empty and the run's bound is the limit.
    assert limits == [20, 100]


def test_an_event_that_raises_leaves_the_engine_between_runs():
    engine = Engine()
    seen = []
    engine.schedule(10, lambda: 1 // 0)
    engine.schedule(15, lambda: seen.append(engine.now))
    with pytest.raises(ZeroDivisionError):
        engine.run_until(20)
    # Outside a run again: settle_limit allows nothing and fired reads the clock.
    assert engine.settle_limit() == float("-inf")
    assert engine.fired(10, 0) and not engine.fired(11, 0)
    engine.run_until(20)
    assert seen == [15]


@pytest.mark.parametrize("t", [0, 2**62 + 3])
def test_an_event_at_t_fires_in_run_until_t_but_not_before(t):
    engine = Engine()
    seen = []
    engine.reserve_ids(1000)
    engine.schedule(t + 1, lambda: seen.append(t + 1))
    engine.schedule(t, lambda: seen.append(t))
    if t == 0:
        with pytest.raises(SchedulingInPast):
            engine.run_until(t - 1)
    else:
        engine.run_until(t - 1)
        assert engine.now == t - 1
    assert seen == [] and engine.pending_events == 2
    engine.run_until(t)
    assert seen == [t] and engine.now == t and engine.pending_events == 1
    engine.run_until(t + 1)
    assert seen == [t, t + 1] and engine.pending_events == 0


def test_fired_compares_with_the_event_now_firing_then_with_now():
    engine = Engine()
    seen = []
    engine.reserve_ids(5)  # ids 0..4 for the probes below
    engine.schedule(
        10, lambda: seen.append([engine.fired(*e) for e in ((9, 99), (10, 4), (10, 5), (10, 6), (11, 0))])
    )
    engine.run_until(10)
    assert seen == [[True, True, False, False, False]]
    assert engine.fired(10, 99) and not engine.fired(11, 0)


def test_trace_rejects_time_going_backwards():
    trace = Trace()
    trace.append(5, "ev", "dev", {})
    with pytest.raises(ValueError):
        trace.append(4, "ev", "dev", {})


def test_unknown_device_lookup_raises():
    engine = Engine()
    with pytest.raises(UnknownDevice):
        engine.device(addr(1))


def test_move_device_emits_move_event():
    stack = make_stack()
    add_device(stack, 1)
    stack.engine.move_device(addr(1), (3.0, 4.0))
    events = [e for e in stack.engine.trace if e.ev == "move"]
    assert len(events) == 1
    assert stack.engine.device(addr(1)).position == (3.0, 4.0)


def _broadcast_probe(stack, sender, freq=0):
    frame = RadioFrame(
        from_addr=sender.address,
        freq_index=freq,
        kind=FrameKind.INQUIRY,
        payload=b"",
    )
    return stack.engine.broadcast(frame, sender)


def test_broadcast_respects_radio_range():
    stack = make_stack()
    a = add_device(stack, 1, position=(0.0, 0.0))
    add_device(stack, 2, position=(5.0, 0.0))
    add_device(stack, 3, position=(50.0, 0.0))
    stack.engine.add_listen_provider(lambda device, t: range(32))
    deliveries = _broadcast_probe(stack, a)
    receivers = {device.address for device, _ in deliveries}
    assert addr(2) in receivers
    assert addr(3) not in receivers


def test_broadcast_only_reaches_devices_listening_on_frequency():
    stack = make_stack()
    a = add_device(stack, 1)
    add_device(stack, 2, position=(1.0, 0.0))
    # Default standby scan at t=0 listens on frequency 0.
    assert _broadcast_probe(stack, a, freq=0)
    assert not _broadcast_probe(stack, a, freq=7)


def test_broadcast_to_filter_excludes_third_parties():
    stack = make_stack()
    a = add_device(stack, 1)
    add_device(stack, 2, position=(1.0, 0.0))
    add_device(stack, 3, position=(1.0, 1.0))
    frame = RadioFrame(
        from_addr=a.address,
        freq_index=0,
        kind=FrameKind.INQUIRY,
        payload=b"",
        to=addr(2),
    )
    deliveries = stack.engine.broadcast(frame, a)
    assert [device.address for device, _ in deliveries] == [addr(2)]


def test_delivery_delay_is_at_least_propagation():
    stack = make_stack(propagation_us=3)
    a = add_device(stack, 1)
    add_device(stack, 2, position=(1.0, 0.0))
    deliveries = _broadcast_probe(stack, a)
    assert all(at == stack.engine.now + 3 for _, at in deliveries)


def test_jitter_keeps_delay_positive_and_bounded():
    stack = make_stack(jitter_us=50, seed=9)
    a = add_device(stack, 1)
    add_device(stack, 2, position=(1.0, 0.0))
    delays = []
    for _ in range(200):
        for _, at in _broadcast_probe(stack, a):
            delays.append(at - stack.engine.now)
    assert all(1 <= d <= 51 for d in delays)
    assert len(set(delays)) > 1


def test_loss_probability_drops_some_frames_deterministically():
    drops = []
    for _ in range(2):
        stack = make_stack(loss=0.5, seed=77)
        a = add_device(stack, 1)
        add_device(stack, 2, position=(1.0, 0.0))
        outcomes = [bool(_broadcast_probe(stack, a)) for _ in range(100)]
        drops.append(outcomes)
    assert drops[0] == drops[1]
    assert any(drops[0]) and not all(drops[0])


def test_same_seed_same_trace_bytes():
    def run(seed):
        stack = make_stack(loss=0.3, seed=seed, jitter_us=10)
        a = add_device(stack, 1)
        add_device(stack, 2, position=(1.0, 0.0))
        stack.discovery.start_inquiry(a, 100_000)
        stack.engine.run_until(150_000)
        return stack.engine.trace.to_jsonl(), stack.engine.trace.sha256()

    text_a, hash_a = run(5)
    text_b, hash_b = run(5)
    text_c, hash_c = run(6)
    assert text_a == text_b and hash_a == hash_b
    assert hash_c != hash_a


def test_medium_validates_inputs():
    with pytest.raises(ValueError):
        MediumModel(loss_probability=1.5)
    with pytest.raises(ValueError):
        MediumModel(propagation_us=0)


# -- the medium's addressee lookup and the inquiry sweep ------------------------


def _addressed(sender, to, freq=0):
    return RadioFrame(from_addr=sender.address, freq_index=freq, kind=FrameKind.PAGE, to=to)


def _after_draws(state, n):
    rng = random.Random()
    rng.setstate(state)
    for _ in range(n):
        rng.random()
    return rng.getstate()


def test_addressed_frame_to_unknown_or_to_sender_delivers_and_draws_nothing():
    stack = make_stack(loss=0.5, jitter_us=5)
    a = add_device(stack, 1)
    add_device(stack, 2, position=(1.0, 0.0))
    stack.engine.add_listen_provider(lambda device, t: range(32))
    for to in (addr(99), a.address):
        before = stack.engine.rng.getstate()
        assert stack.engine.broadcast(_addressed(a, to), a) == []
        assert stack.engine.rng.getstate() == before
    assert stack.engine.pending_events == 0


def test_addressed_frame_draws_one_loss_value_only_when_addressee_can_hear():
    stack = make_stack(loss=0.5)
    a = add_device(stack, 1)
    # Third parties in range and listening must not draw for someone else's frame.
    add_device(stack, 2, position=(1.0, 0.0))
    add_device(stack, 3, position=(1.0, 1.0))
    add_device(stack, 4, position=(50.0, 0.0))
    add_device(stack, 5, position=(2.0, 0.0))
    # At t=0 every standby scanner listens on frequency 0.
    cases = [(addr(3), 0, 1), (addr(4), 0, 0), (addr(5), 7, 0), (addr(2), 0, 1)]
    for to, freq, draws in cases:
        before = stack.engine.rng.getstate()
        stack.engine.broadcast(_addressed(a, to, freq), a)
        assert stack.engine.rng.getstate() == _after_draws(before, draws), to


def test_radio_frame_is_a_tuple_of_its_fields_with_their_defaults():
    frame = RadioFrame(addr(1), 3, FrameKind.PAGE)
    assert frame == (addr(1), 3, FrameKind.PAGE, b"", None, None)
    assert RadioFrame._fields == ("from_addr", "freq_index", "kind", "payload", "to", "link")
    fields = (addr(1), 3, FrameKind.PAGE, b"x", addr(2), None)
    built = tuple.__new__(RadioFrame, fields)
    assert type(built) is RadioFrame and built == RadioFrame(*fields) and built.to == addr(2)


def test_frame_kinds_dispatch_by_identity_to_added_and_replaced_handlers(monkeypatch):
    assert FrameKind("inquiry") is FrameKind.INQUIRY
    assert all(FrameKind(kind.value) is kind for kind in FrameKind)
    enum_hashes = []
    enum_hash = enum.Enum.__hash__
    monkeypatch.setattr(enum.Enum, "__hash__", lambda kind: enum_hashes.append(kind) or enum_hash(kind))
    engine = Engine()
    a = engine.add_device(DeviceConfig(addr(1)))
    b = engine.add_device(DeviceConfig(addr(2), position=(1.0, 0.0)))
    engine.add_listen_provider(lambda device, t: (5,))
    seen = []
    # Replaced before the run, and added after the engine has run.
    engine._frame_handlers[FrameKind.INQUIRY] = [lambda d, f, now: seen.append(("replaced", d, f))]
    engine.run_until(10)
    engine.add_frame_handler(FrameKind.PAGE, lambda d, f, now: seen.append(("added", d, f)))
    inquiry = RadioFrame(a.address, 5, FrameKind.INQUIRY)
    page = RadioFrame(a.address, 5, FrameKind.PAGE, to=b.address)
    engine.broadcast(inquiry, a)
    engine.broadcast(page, a)
    engine.run_until(20)
    assert seen == [("replaced", b, inquiry), ("added", b, page)]
    assert enum_hashes == []  # neither the engine nor a delivery called Enum.__hash__


@pytest.mark.parametrize("freq", [32, -1])
@pytest.mark.parametrize("to", [None, addr(2)])
def test_broadcast_rejects_a_frequency_index_out_of_range_before_any_draw(freq, to):
    stack = make_stack(loss=0.5, jitter_us=5)
    a = add_device(stack, 1)
    add_device(stack, 2, position=(1.0, 0.0))
    stack.engine.add_listen_provider(lambda device, t: range(-1, 33))
    frame = RadioFrame(a.address, freq, FrameKind.PAGE, to=to)
    before = stack.engine.rng.getstate()
    with pytest.raises(ValueError, match="freq_index"):
        stack.engine.broadcast(frame, a)
    assert stack.engine.rng.getstate() == before
    assert stack.engine.pending_events == 0


@settings(max_examples=60, deadline=None)
@given(
    offsets=st.lists(st.integers(-3_000_000, 3_000_000), min_size=1, max_size=6),
    inquirer_offset=st.integers(-3_000_000, 3_000_000),
    start=st.integers(0, 4_000_000),
    duration=st.integers(1, 30_000),
)
def test_inquiry_cycle_sweeps_the_union_of_every_listener_slots(
    offsets, inquirer_offset, start, duration
):
    stack = make_stack()
    inquirer = add_device(stack, 1, clock_offset_us=inquirer_offset)
    for i, offset in enumerate(offsets + offsets[:2]):  # repeated offsets too
        add_device(stack, 2 + i, position=(1.0, 0.0), clock_offset_us=offset)
    params = stack.discovery.params
    expected = {
        hit for offset in offsets for hit in sweep_slots(params, offset, start, start + duration)
    }
    sent = []
    broadcast = stack.engine.broadcast

    def record(frame, sender):
        if frame.kind is FrameKind.INQUIRY:
            sent.append((stack.engine.now, frame.freq_index))
        return broadcast(frame, sender)

    stack.engine.broadcast = record
    stack.engine.run_until(start)
    stack.discovery.start_inquiry(inquirer, duration)
    stack.engine.run_until(start + params.inquiry_cycle_us - 1)
    assert sorted(sent) == sorted(expected)


# -- neighbour lists and the trace-line kernel -----------------------------------


def _brute_force_broadcast(engine, sender, freq, rng):
    """Deliveries of an unaddressed frame found by scanning every device, as
    the medium did before it kept neighbour lists; draws from ``rng``."""
    loss, jitter = engine.medium.loss_probability, engine.medium.jitter_us
    out = []
    for receiver in engine.devices.values():
        if receiver is sender:
            continue
        dx = sender.position[0] - receiver.position[0]
        dy = sender.position[1] - receiver.position[1]
        limit = min(sender.config.radio_range_m, receiver.config.radio_range_m)
        if dx * dx + dy * dy > limit * limit:
            continue
        if receiver.address.value % 3 == freq:  # the test's listen provider
            continue
        if rng.random() < loss:
            continue
        delay = engine.medium.propagation_us
        if jitter:
            delay = max(1, delay + rng.randint(-jitter, jitter))
        out.append((receiver, engine.now + delay))
    return out


_coord = st.floats(0.0, 30.0, allow_nan=False)
_step = st.one_of(
    st.tuples(st.just("add"), _coord, _coord, st.floats(0.0, 20.0, allow_nan=False)),
    st.tuples(st.just("move"), st.integers(0, 50), _coord, _coord),
)


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(_step, min_size=1, max_size=25),
    loss=st.floats(0.05, 0.9),
    jitter=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_unaddressed_broadcast_matches_a_scan_of_every_device(steps, loss, jitter, seed):
    engine = Engine(MediumModel(loss_probability=loss, jitter_us=jitter), seed=seed)
    engine.add_listen_provider(lambda device, t: [f for f in range(3) if f != device.address.value % 3])
    for n, step in enumerate(steps):
        if step[0] == "add":
            _, x, y, reach = step
            engine.add_device(DeviceConfig(address=addr(n), position=(x, y), radio_range_m=reach))
        elif engine.devices:
            _, index, x, y = step
            device = list(engine.devices.values())[index % len(engine.devices)]
            engine.move_device(device.address, (x, y))
        for sender in engine.devices.values():
            freq = n % 3
            reference = random.Random()
            reference.setstate(engine.rng.getstate())
            expected = _brute_force_broadcast(engine, sender, freq, reference)
            frame = RadioFrame(from_addr=sender.address, freq_index=freq, kind=FrameKind.INQUIRY)
            assert engine.broadcast(frame, sender) == expected
            assert engine.rng.getstate() == reference.getstate()


@pytest.mark.parametrize("seed", range(5))
def test_draw_returns_the_deliveries_broadcast_schedules_and_queues_nothing(seed):
    """On two engines in the same state, ``draw`` over the sender's
    neighbours draws what ``broadcast`` of an inquiry frame schedules, the
    same deliveries at the same times with the same generator state after,
    and queues no event."""

    def build():
        engine = Engine(MediumModel(loss_probability=0.3, jitter_us=2), seed=seed)
        engine.add_listen_provider(lambda d, t: [f for f in range(3) if f != d.address.value % 3])
        for n in range(1, 12):
            engine.add_device(DeviceConfig(address=addr(n), position=(float(n % 4), float(n // 4))))
        landed = []
        engine.add_frame_handler(FrameKind.INQUIRY, lambda d, _f, now: landed.append((d.address, now)))
        engine.run_until(7)
        return engine, landed

    sent, landed = build()
    drawn, _ = build()
    sender, freq = sent.device(addr(1)), seed % 3
    frame = RadioFrame(from_addr=sender.address, freq_index=freq, kind=FrameKind.INQUIRY)
    scheduled = sent.broadcast(frame, sender)
    deliveries = drawn.draw(freq, None, drawn.neighbours(drawn.device(addr(1))), drawn.now)
    assert scheduled and [(d.address, at) for d, at in deliveries] == [
        (d.address, at) for d, at in scheduled
    ]
    assert drawn.rng.getstate() == sent.rng.getstate()
    assert drawn.pending_events == 0 and drawn.reserve_ids(0) == 0
    assert sent.pending_events == len(scheduled)
    sent.run_until(20)
    assert sorted(landed) == sorted((d.address, at) for d, at in scheduled)


# -- frames whose outcome is known: link frames and quiet sweep slots ----------


def _run_checked(scenario, seed, reference=False):
    """The scenario's trace, and how many frames carried a link and how many
    inquiry frames were sent. Every frame that carries a link is checked when
    it is offered: the link is the pair's ``link_between``, it is connected,
    the frame's addressee is the sender's peer on it, and the full
    listen-provider search agrees that the addressee listens. No run of
    inquiry cycles is settled inline, so the frame counts cover every cycle;
    the reference also broadcasts every quiet sweep slot."""
    with fastpaths.off("settle", "quiet_slots") if reference else fastpaths.off("settle"):
        run = ScenarioRun(scenario, seed)
        engine = run.stack.engine
        flagged = {"link": 0, "inquiry": 0}
        broadcast = engine.broadcast

        def checked(frame, sender):
            link = frame.link
            if link is not None:
                assert link is run.stack.links.link_between(frame.from_addr, frame.to)
                assert link.state is LinkState.CONNECTED
                assert frame.from_addr is sender.address
                assert frame.to is link.peer_of(sender).address
                addressee = engine.devices[frame.to]
                providers = engine._listen_providers
                assert any(frame.freq_index in p(addressee, engine.now) for p in providers)
                flagged["link"] += 1
            flagged["inquiry"] += frame.kind is FrameKind.INQUIRY
            return broadcast(frame, sender)

        engine.broadcast = checked
        trace, _ = run.run()
    return trace.to_jsonl(), flagged


_HEART_RATE = {"heart_rate_bpm": 72.0, "filling_duration_ms": 180.0, "ascending_wave_index_pct": 15.0}


def _edges_scenario(
    loss, jitter, propagation, sensors, first_us, gap_us, second_us, moves, modes=()
):
    phone = "AA:00:00:00:00:10"
    devices = [{"address": phone, "position": [0.0, 0.0], "pin": "1234", "role": "sink"}]
    for i, (x, offset) in enumerate(sensors):
        devices.append(
            {"address": f"AA:00:00:00:00:0{i + 1}", "position": [x, 1.0],
             "pin": "1234", "role": "source", "clock_offset_us": offset}
        )
    source = devices[1]["address"]
    timeline = [
        {"t_us": 0, "action": "start_inquiry", "device": phone, "duration_us": first_us},
        {"t_us": first_us + gap_us, "action": "start_inquiry", "device": phone,
         "duration_us": second_us},
    ]
    for t_us, index, x in moves:
        timeline.append({"t_us": t_us, "action": "move_device",
                         "device": devices[1 + index % len(sensors)]["address"],
                         "position": [x, 1.0]})
    for t_us, index, mode, *window in modes:  # a limited mode carries its window
        timeline.append({"t_us": t_us, "action": "set_mode",
                         "device": devices[1 + index % len(sensors)]["address"],
                         "discoverability": mode, **{"window_us": w for w in window}})
    timeline += [
        {"t_us": 100_000, "action": "page", "device": phone, "target": source},
        {"t_us": 1_000_000, "action": "associate", "source": source, "sink": phone,
         "specialization": "heart_rate"},
        {"t_us": 1_500_000, "action": "send_measurement", "source": source, "sink": phone,
         "count": 3, "interval_us": 300_000, "readings": _HEART_RATE},
        {"t_us": 8_000_000, "action": "run_until"},
    ]
    timeline.sort(key=lambda a: a["t_us"])  # stable: ties keep their order
    medium = {"loss_probability": loss, "jitter_us": jitter, "propagation_us": propagation}
    return validate_scenario({"devices": devices, "medium": medium, "timeline": timeline})


def _near_slot(cycles, deltas):
    """Times a few us from a slot that scanners at the sensor offsets below
    hear, 313 us per frequency (the inquiry_quiet offsets 10,240,000 and
    20,480,000 are heard 2,504 and 5,008 us into a cycle): frames are then in
    flight, or a move or mode change lands between a slot and its delivery.
    A time before the first slot is clamped to 0, the earliest valid one."""
    return st.builds(
        lambda cycle, slot, delta: max(0, 10_000 * cycle + slot + delta),
        st.integers(0, cycles),
        st.sampled_from([0, 313, 2_504, 5_008, 9_703]),
        deltas,
    )


_QUIET = [(1.0, 0), (1.5, 5_120_000), (2.0, 10_240_000), (40.0, 20_480_000)]


def test_skipped_work_keeps_the_trace_bytes():
    skipped = []  # inquiry frames the skip saved, per lossless jitter-free example

    @settings(max_examples=60, deadline=None)
    @given(
        loss=st.sampled_from([0.0, 0.05, 0.3]),
        jitter=st.integers(0, 4),
        propagation=st.integers(1, 3),
        sensors=st.lists(
            st.tuples(
                st.floats(0.5, 12.0),
                st.sampled_from([0, 300, 39_700_000, 1_281_000, 10_240_000, 20_480_000]),
            ),
            min_size=1,
            max_size=4,
        ),
        # Responses may still be in flight at the first deadline.
        first_us=st.integers(1, 40_000) | _near_slot(3, st.integers(1, 6)),
        gap_us=st.integers(1, 4),
        second_us=st.integers(1, 30_000),
        moves=st.lists(
            st.tuples(
                st.integers(0, 6_000_000) | _near_slot(5, st.integers(-3, 3)),
                st.integers(0, 3),
                st.sampled_from([2.0, 40.0]),
            ),
            max_size=4,
        ),
        modes=st.lists(
            st.tuples(
                st.integers(0, 80_000) | _near_slot(7, st.integers(0, 4)),
                st.integers(0, 3),
                st.sampled_from(["discoverable", "non_discoverable"]),
            ),
            max_size=4,
        ),
        seed=st.integers(0, 2**16),
    )
    @example(  # a repeat response lands 1 us into the second inquiry
        loss=0.0, jitter=3, propagation=1, sensors=[(1.0, 0), (2.0, 39_700_000)],
        first_us=20_002, gap_us=2, second_us=30_000, moves=[], modes=[], seed=0,
    )
    @example(  # the inquiry_quiet edges: a walk-in before its slot, a device made
        # discoverable 1 us after its slot, a response in flight at the deadline
        loss=0.0, jitter=0, propagation=2, sensors=_QUIET,
        first_us=20_003, gap_us=1, second_us=30_000, moves=[(12_000, 3, 2.5)],
        modes=[(0, 2, "non_discoverable"), (2_505, 2, "discoverable")], seed=0,
    )
    @example(  # made discoverable as the frame it hears lands, and hidden again
        loss=0.0, jitter=0, propagation=2, sensors=_QUIET,
        first_us=20_003, gap_us=1, second_us=30_000, moves=[(15_008, 3, 2.5)],
        modes=[(0, 2, "non_discoverable"), (2_506, 2, "discoverable"),
               (12_505, 0, "non_discoverable")],
        seed=0,
    )
    def check(loss, jitter, propagation, sensors, first_us, gap_us, second_us, moves, modes, seed):
        scenario = _edges_scenario(
            loss, jitter, propagation, sensors, first_us, gap_us, second_us, moves, modes
        )
        trace, flagged = _run_checked(scenario, seed)
        reference, full = _run_checked(scenario, seed, reference=True)
        assert trace == reference
        assert flagged["inquiry"] <= full["inquiry"]
        if loss == 0.0 and jitter == 0:
            skipped.append(full["inquiry"] - flagged["inquiry"])
        else:
            assert flagged["inquiry"] == full["inquiry"]

    check()
    assert any(skipped)


@pytest.mark.parametrize("seed", [1, 2])
def test_inquiry_edges_golden_routes_link_frames_with_the_reference_bytes(seed):
    scenario = load_scenario(str(Path(__file__).parent / "golden" / "inquiry_edges.json"))
    trace, flagged = _run_checked(scenario, seed)
    reference, _ = _run_checked(scenario, seed, reference=True)
    assert trace == reference
    assert flagged["link"] > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_inquiry_quiet_golden_skips_sweep_slots_with_the_reference_bytes(seed):
    scenario = load_scenario(str(Path(__file__).parent / "golden" / "inquiry_quiet.json"))
    trace, flagged = _run_checked(scenario, seed)
    reference, full = _run_checked(scenario, seed, reference=True)
    assert trace == reference
    assert 0 < flagged["inquiry"] < full["inquiry"]


@pytest.mark.parametrize("loss", [0.0, 0.3])
def test_another_response_handler_gets_every_repeat_response(loss):
    """Quiet slots and settled runs skip repeat responses only when no other
    handler would be handed them."""

    def run():
        stack = make_stack(loss=loss)
        inquirer = add_device(stack, 9)
        for i, offset in enumerate((0, 5_120_000)):
            add_device(stack, 1 + i, position=(1.0 + i, 1.0), clock_offset_us=offset)
        seen = []
        stack.engine.add_frame_handler(
            FrameKind.INQUIRY_RESPONSE, lambda d, f, now: seen.append((now, f.from_addr))
        )
        stack.discovery.start_inquiry(inquirer, 100_000)
        stack.engine.run_until(200_000)
        return seen, stack.engine.reserve_ids(0), stack.engine.rng.getstate()

    fast = run()
    with fastpaths.off():
        assert run() == fast
    assert len(fast[0]) > 2  # repeat responses reached the tap


# -- runs of inquiry cycles settled inline -------------------------------------


def _outcome(scenario, seed, settle=True, listen=None):
    """A run's trace and metrics bytes, how many event ids it issued and its
    final RNG state; and how many runs of inquiry cycles it settled. A
    ``listen`` provider, if given, is added to the run's engine."""
    with contextlib.nullcontext() if settle else fastpaths.off("settle"):
        run = ScenarioRun(scenario, seed)
        if listen is not None:
            run.stack.engine.add_listen_provider(listen)
        discovery = run.stack.discovery
        settled = []
        step = discovery._settle
        discovery._settle = lambda inquiry, slots: settled.append(step(inquiry, slots)) or settled[-1]
        trace, report = run.run()
    engine = run.stack.engine
    outcome = (trace.to_jsonl(), metrics_json(report), engine.reserve_ids(0), engine.rng.getstate())
    return outcome, sum(settled)


def test_settled_inquiry_cycles_keep_the_bytes_ids_and_draws():
    settled = []  # (loss, runs settled) per example

    @settings(max_examples=80, deadline=None)
    @given(
        loss=st.sampled_from([0.0, 0.05, 0.3]),
        jitter=st.just(0) | st.integers(0, 4),
        # From 157 us a round trip outlasts a 313 us slot; from 297 us a
        # slot's deliveries can land after the next cycle's first slot.
        propagation=st.integers(1, 3) | st.integers(1, 400),
        sensors=st.lists(
            st.tuples(
                st.floats(0.5, 12.0),
                # 1,240,000 changes scan window at 40 ms, inside the inquiries.
                st.sampled_from(
                    [0, 300, 39_700_000, 1_281_000, 1_240_000, 10_240_000, 20_480_000]
                ),
            ),
            min_size=1,
            max_size=4,
        ),
        first_us=st.integers(1, 150_000) | _near_slot(3, st.integers(1, 6)),
        gap_us=st.integers(1, 4),
        second_us=st.integers(1, 60_000),
        moves=st.lists(
            st.tuples(
                st.integers(0, 200_000) | _near_slot(12, st.integers(-3, 3)),
                st.integers(0, 3),
                st.sampled_from([2.0, 40.0]),
            ),
            max_size=3,
        ),
        modes=st.lists(
            st.tuples(
                st.integers(0, 200_000) | _near_slot(12, st.integers(0, 4)),
                st.integers(0, 3),
                st.sampled_from(["discoverable", "non_discoverable"]),
            )
            | st.tuples(
                st.integers(0, 100_000),
                st.integers(0, 3),
                st.just("limited"),
                st.integers(1, 100_000),
            ),
            max_size=3,
        ),
        seed=st.integers(0, 2**16),
    )
    @example(  # a lossy second inquiry of 3 us, 2 us after a first one of 1 us
        loss=0.05, jitter=0, propagation=1, sensors=[(1.0, 0)],
        first_us=1, gap_us=1, second_us=3, moves=[], modes=[], seed=0,
    )
    @example(  # lossy, with deliveries 200 us after their slot
        loss=0.3, jitter=0, propagation=200, sensors=[(1.0, 0), (2.0, 20_480_000)],
        first_us=90_000, gap_us=1, second_us=30_000, moves=[],
        modes=[(0, 1, "non_discoverable")], seed=3,
    )
    @example(  # lossless: an unseen hidden sensor's slots are settled, not quiet,
        # until it is shown 40 ms in
        loss=0.0, jitter=0, propagation=2, sensors=_QUIET[:3],
        first_us=95_000, gap_us=1, second_us=1, moves=[],
        modes=[(0, 2, "non_discoverable"), (40_000, 2, "discoverable")], seed=0,
    )
    @example(  # inside a settled run, a limited window closes as the frame of
        # the 60 ms slot lands
        loss=0.3, jitter=0, propagation=1, sensors=[(1.0, 0), (1.5, 10_240_000)],
        first_us=95_000, gap_us=1, second_us=1, moves=[],
        modes=[(0, 0, "limited", 60_001)], seed=0,
    )
    @example(  # lossy, settled from 10 ms across the sensor's scan window change
        # at 40 ms: the cycles at 30 ms and 50-80 ms repeat their stretch's first
        loss=0.3, jitter=0, propagation=1, sensors=[(1.0, 1_240_000)],
        first_us=95_000, gap_us=1, second_us=1, moves=[], modes=[], seed=0,
    )
    @example(  # lossy, settled from 10 ms: both sensors hear the first slot until
        # 40 ms, so the 30 ms cycle repeats the 20 ms one; from 40 ms each hears a
        # slot of its own, and every cycle draws through Engine.draw
        loss=0.3, jitter=0, propagation=1, sensors=[(1.0, 0), (1.5, 1_240_000)],
        first_us=95_000, gap_us=1, second_us=1, moves=[], modes=[], seed=5,
    )
    @example(  # lossy: the page queued at 100 ms, not the deadline, ends a stretch
        loss=0.3, jitter=0, propagation=1, sensors=[(1.0, 0)],
        first_us=120_000, gap_us=1, second_us=1, moves=[], modes=[], seed=1,
    )
    @example(  # lossy: the page at 100 ms ends a stretch inside its last cycle,
        # between the cycle's start and its slot's response at 99,703 + 2 * 200 us
        loss=0.3, jitter=0, propagation=200, sensors=[(1.0, 39_700_000)],
        first_us=120_000, gap_us=1, second_us=1, moves=[], modes=[], seed=0,
    )
    @example(  # lossy, with one stretch from 40 ms to the deadline, in which a
        # limited window closes at 60 ms: its later cycles cannot repeat the first
        loss=0.3, jitter=0, propagation=1, sensors=[(1.0, 1_240_000)],
        first_us=95_000, gap_us=1, second_us=1, moves=[],
        modes=[(0, 0, "limited", 60_001)], seed=0,
    )
    def check(loss, jitter, propagation, sensors, first_us, gap_us, second_us, moves, modes, seed):
        scenario = _edges_scenario(
            loss, jitter, propagation, sensors, first_us, gap_us, second_us, moves, modes
        )
        settled_on, runs = _outcome(scenario, seed)
        plain, _ = _outcome(scenario, seed, settle=False)
        assert settled_on == plain
        settled.append((loss, runs))

    check()
    assert any(runs for loss, runs in settled if loss > 0.0)
    assert any(runs for loss, runs in settled if loss == 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_another_listen_provider_keeps_every_settled_cycle_on_engine_draw(seed):
    """A neighbour that the scan does not hear at the cycle's first slot, but
    that another listen provider has listen on its frequency in odd cycles
    only, draws differently from cycle to cycle: the settled run falls back
    to ``Engine.draw`` for every cycle and still draws as the plain path."""
    deaf = "AA:00:00:00:00:02"  # scans frequency 4, not the first slot's 0
    scenario = _edges_scenario(
        0.3, 0, 1, [(1.0, 0), (1.5, 5_120_000)], 95_000, 1, 1, moves=[]
    )

    def listen(device, t):
        return (0,) if str(device.address) == deaf and t // 10_000 % 2 else ()

    settled_on, runs = _outcome(scenario, seed, listen=listen)
    assert settled_on == _outcome(scenario, seed, settle=False, listen=listen)[0]
    assert runs > 0


@settings(max_examples=40, deadline=None)
@given(
    loss=st.sampled_from([0.0, 0.05, 0.3]),
    slices=st.lists(
        st.tuples(
            st.integers(1, 40_000),
            st.sampled_from(["move", "hide", "show", "limit", "medium"]),
            st.integers(0, 2),
        ),
        max_size=6,
    ),
    seed=st.integers(0, 2**16),
)
def test_api_changes_between_run_until_slices_reach_the_inquiry(loss, slices, seed):
    """Nothing is settled past the bound of the ``run_until`` running, since
    a change made between two calls queues no event."""

    def run(settle):
        with contextlib.nullcontext() if settle else fastpaths.off("settle"):
            stack = make_stack(loss=loss, seed=seed)
            engine, discovery = stack.engine, stack.discovery
            inquirer = add_device(stack, 9)
            sensors = [
                add_device(stack, 1 + i, position=(1.0 + i, 1.0), clock_offset_us=offset)
                for i, offset in enumerate((0, 5_120_000, 10_240_000))
            ]
            discovery.set_discoverability(sensors[2], DiscoverabilityMode.NON_DISCOVERABLE)
            discovery.start_inquiry(inquirer, 200_000)
            for step, change, index in slices:
                engine.run_until(engine.now + step)
                sensor = sensors[index]
                if change == "move":
                    x = 40.0 if sensor.position[0] < 20.0 else 1.0 + index
                    engine.move_device(sensor.address, (x, 1.0))
                elif change == "medium":
                    lossy = engine.medium.loss_probability == 0.0
                    engine.medium = MediumModel(loss_probability=0.3 if lossy else 0.0)
                else:
                    mode = {
                        "hide": DiscoverabilityMode.NON_DISCOVERABLE,
                        "show": DiscoverabilityMode.DISCOVERABLE,
                        "limit": DiscoverabilityMode.LIMITED,
                    }[change]
                    discovery.set_discoverability(sensor, mode, 15_000)
            engine.run_until(300_000)
            return engine.trace.to_jsonl(), engine.reserve_ids(0), engine.rng.getstate()

    assert run(True) == run(False)


def test_inquiry_hears_a_device_moved_into_range_and_not_one_moved_out():
    stack = make_stack()
    inquirer = add_device(stack, 1)
    # Scans frequency 0, heard at the start of every cycle once in range.
    add_device(stack, 2, position=(50.0, 0.0))
    # Scans frequency 31, heard 9,703 us into a cycle: later than its move.
    add_device(stack, 3, position=(2.0, 0.0), clock_offset_us=31 * 1_280_000)
    inquiry = stack.discovery.start_inquiry(inquirer, 100_000)
    stack.engine.run_until(5_000)
    assert inquiry.results == []
    stack.engine.move_device(addr(2), (3.0, 0.0))
    stack.engine.move_device(addr(3), (60.0, 0.0))
    stack.engine.run_until(200_000)
    assert [(r.address, r.discovered_at) for r in inquiry.results] == [(addr(2), 10_002)]


_text = st.text(alphabet=st.characters(codec="utf-8"), max_size=12) | st.sampled_from(
    ['"', "\\", "%", "%d%s%%", "\x00\x1f\x7f", "\u2028", "é€😀", " "]
)
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150)
@given(
    t_us=st.integers(0, 2**62),
    seq=st.integers(0, 2**40),
    ev=_text,
    dev=_text,
    detail=st.dictionaries(_text, _json_value, max_size=5),
)
def test_trace_line_equals_json_dumps_of_the_event(t_us, seq, ev, dev, detail):
    """Kept and streamed events are serialised by ``trace_line`` alone."""
    def dumped(seq):
        as_dict = {"t_us": t_us, "seq": seq, "ev": ev, "dev": dev, "detail": detail}
        return json.dumps(as_dict, sort_keys=True, separators=(",", ":")) + "\n"

    assert trace_line(t_us, seq, ev, dev, detail) == dumped(seq)
    assert TraceEvent(t_us, seq, ev, dev, detail).to_json() + "\n" == dumped(seq)
    kept, streamed = Trace(), Trace()
    streamed.out = io.StringIO()
    for trace in (kept, streamed):
        trace.append(t_us, ev, dev, detail)
    assert streamed.out.getvalue() == kept.to_jsonl() == dumped(0)
    assert streamed.events == [] and len(streamed) == 1


def test_a_kept_run_parses_its_events_on_read_and_each_line_once(monkeypatch):
    """A kept run builds no ``TraceEvent`` until ``events`` is read; a later
    read extends the same list with the lines appended since."""
    monkeypatch.setattr(engine_module, "TraceEvent", None)
    trace, _report = run_scenario(demo_scenario("pulsemeter"), seed=42)
    built = []

    def counted(**fields):
        built.append(fields["seq"])
        return TraceEvent(**fields)

    monkeypatch.setattr(engine_module, "TraceEvent", counted)
    lines = trace.to_jsonl().splitlines(keepends=True)
    events = trace.events
    assert built == list(range(len(lines))) and len(trace) == len(events) == len(lines)
    assert [e.to_json() + "\n" for e in events] == lines

    t_us, seq, dev = events[-1].t_us, len(lines), events[-1].dev
    trace.append(t_us, "note", dev, {"pair": (1, 2)})  # a tuple reads back as a list
    trace.append(t_us + 1, "mdl_ack", dev, (1, 7), TYPED["mdl_ack"])
    assert trace.events is events and len(trace) == len(events) == seq + 2
    assert built == list(range(seq + 2))
    assert events[seq:] == [
        TraceEvent(t_us, seq, "note", dev, {"pair": [1, 2]}),
        TraceEvent(t_us + 1, seq + 1, "mdl_ack", dev, {"mdl_id": 1, "seq": 7}),
    ]
    assert trace.events is events and len(built) == len(events)


_TYPED_VALUES = {
    int: st.integers() | st.sampled_from([0, -1, 2**53, 2**53 + 1, -(2**63), 2**64 + 7]),
    bool: st.booleans(),
}


@settings(max_examples=300)
@given(
    data=st.data(),
    ev=st.sampled_from(sorted(TYPED_EVENTS)),
    t_us=st.integers(0, 2**62),
    seq=st.integers(0, 2**40),
    dev=st.integers(0, MAX_ADDRESS).map(lambda v: str(DeviceAddress(v))),
    fed=st.booleans(),
)
def test_typed_lines_equal_trace_line_of_the_event(data, ev, t_us, seq, dev, fed):
    """A typed event's template writes ``trace_line``'s bytes; a kept typed
    event carries the detail dict of its values, and a kept or streamed one is
    fed the values themselves."""
    kinds = TYPED_EVENTS[ev]
    values = tuple(data.draw(_TYPED_VALUES[kind], label=name) for name, kind in kinds)
    detail = {name: value for (name, _kind), value in zip(kinds, values)}
    assert list(detail) == sorted(detail)
    assert TYPED[ev].line(values, dev, seq, t_us) == trace_line(t_us, seq, ev, dev, detail)
    fed_events = []
    kept, streamed = Trace(), Trace()
    streamed.out = io.StringIO()
    for trace in (kept, streamed):
        trace.feed = lambda *event: fed_events.append(event)
        trace.feed_events = frozenset({ev} if fed else ())
        trace.append(t_us, ev, dev, values, TYPED[ev])
    assert streamed.out.getvalue() == kept.to_jsonl() == trace_line(t_us, 0, ev, dev, detail)
    assert kept.events == [TraceEvent(t_us, 0, ev, dev, detail)] and streamed.events == []
    assert fed_events == ([(t_us, ev, dev, values)] * 2 if fed else [])

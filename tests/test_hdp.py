from __future__ import annotations

import math
import struct
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdpsim.engine import MediumModel, UnknownDevice
from hdpsim.hdp import (
    AlreadyReleased,
    AssocState,
    AudioNotSupported,
    AuthRequired,
    ChannelKind,
    HEART_RATE_METRICS,
    InvalidMeasurement,
    Measurement,
    METRICS,
    NoControlChannel,
    Released,
    scale_value,
    Specialization,
    SpecializationRejected,
    UnknownMetric,
    validate_channel_kind,
)
from hdpsim.link import PROTO_MCAP, LinkState
from hdpsim.mcap import _OP_DATA, ChannelState, SendStatus
from hdpsim.metrics import MetricsFold, compute_metrics
from hdpsim.params import SimParams
from hdpsim.runner import run_scenario
from hdpsim.scenario import load_scenario
from hdpsim.security import Pin

from conftest import add_device, addr, connect, make_stack, run_while

HEART_READINGS = {
    "heart_rate_bpm": 72.0,
    "filling_duration_ms": 180.5,
    "ascending_wave_index_pct": 15.2,
}


def sensor_pair(stack, source_offset_us=0, source_i=1, sink_i=2):
    source = add_device(stack, source_i, position=(0.0, 0.0), clock_offset_us=source_offset_us)
    sink = add_device(stack, sink_i, position=(1.0, 0.0))
    stack.links.set_pin(source.address, Pin.from_text("1234"))
    stack.links.set_pin(sink.address, Pin.from_text("1234"))
    stack.hdp.set_role(source.address, "source")
    stack.hdp.set_role(sink.address, "sink")
    connect(stack, sink, source)  # sink pages, so the sink is link master
    stack.mcap.open_control_channel(source, sink)
    return source, sink


def operating_assoc(stack, source, sink, specialization=Specialization.HEART_RATE):
    assoc = stack.hdp.associate(source, sink, specialization)
    run_while(stack, lambda: assoc.state is AssocState.ASSOCIATING, 10_000_000)
    assert assoc.state is AssocState.OPERATING
    return assoc


# -- measurement encoding ---------------------------------------------------


def test_scale_value_rounds_to_tenths():
    assert scale_value(72.04) == 720
    assert scale_value(72.05) == 720  # banker's rounding on .5 ties
    assert scale_value(72.06) == 721
    assert scale_value(-1.26) == -13


def test_scale_value_rejects_out_of_range():
    with pytest.raises(InvalidMeasurement):
        scale_value(2.2e8)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scale_value_rejects_non_finite_values(value):
    with pytest.raises(InvalidMeasurement, match="not finite"):
        scale_value(value)


def test_measurement_requires_known_metrics():
    with pytest.raises(UnknownMetric):
        Measurement.build(Specialization.SCALE, 1, 0, {"bogus_metric": 1.0})


def test_a_measurement_names_the_unit_of_a_known_metric():
    measurement = Measurement.build(Specialization.HEART_RATE, 1, 0, HEART_READINGS)
    assert measurement.unit("heart_rate_bpm") == "bpm"
    assert measurement.unit("ascending_wave_index_pct") == "percent"
    with pytest.raises(UnknownMetric):
        measurement.unit("bogus_metric")


def test_heart_rate_requires_its_exact_metric_set():
    incomplete = {"heart_rate_bpm": 70.0}
    with pytest.raises(InvalidMeasurement):
        Measurement.build(Specialization.HEART_RATE, 1, 0, incomplete)
    extra = dict(HEART_READINGS, spo2_pct=99.0)
    with pytest.raises(InvalidMeasurement):
        Measurement.build(Specialization.HEART_RATE, 1, 0, extra)
    Measurement.build(Specialization.HEART_RATE, 1, 0, HEART_READINGS)


def test_metric_registry_covers_all_specializations_metrics():
    assert len(METRICS) == 9
    assert HEART_RATE_METRICS <= set(METRICS)
    codes = [code for code, _ in METRICS.values()]
    assert len(set(codes)) == len(codes)  # codes unique


@settings(max_examples=80, deadline=None)
@given(
    seq=st.integers(min_value=0, max_value=2**32 - 1),
    timestamp=st.integers(min_value=-(2**40), max_value=2**40),
    bpm=st.floats(min_value=0, max_value=300, allow_nan=False),
    fill=st.floats(min_value=0, max_value=5000, allow_nan=False),
    wave=st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_measurement_wire_roundtrip(seq, timestamp, bpm, fill, wave):
    readings = {
        "heart_rate_bpm": bpm,
        "filling_duration_ms": fill,
        "ascending_wave_index_pct": wave,
    }
    m = Measurement.build(Specialization.HEART_RATE, seq, timestamp, readings)
    assert Measurement.decode(m.encode()) == m


def test_measurement_wire_layout_is_fixed():
    m = Measurement.build(
        Specialization.HEART_RATE, 7, 1000, HEART_READINGS
    )
    raw = m.encode()
    # 4B seq + 8B timestamp + 1B specialization + 1B count + 3 * 5B entries
    assert len(raw) == 14 + 15
    assert raw[:4] == (7).to_bytes(4, "big")
    assert raw[12] == Specialization.HEART_RATE.value
    assert raw[13] == 3
    assert raw[14] == METRICS["heart_rate_bpm"][0]  # entries sorted by code


def test_measurement_is_an_immutable_value():
    m = Measurement.build(Specialization.HEART_RATE, 7, 1000, HEART_READINGS)
    with pytest.raises(AttributeError):
        m.seq = 8
    with pytest.raises(AttributeError):
        m.note = "extra"
    twin = Measurement.decode(m.encode())
    assert twin == m and hash(twin) == hash(m) and twin is not m
    assert m != Measurement.build(Specialization.HEART_RATE, 8, 1000, HEART_READINGS)


def test_decoding_an_unknown_specialization_code_raises_value_error():
    raw = bytearray(Measurement.build(Specialization.HEART_RATE, 7, 1000, HEART_READINGS).encode())
    raw[12] = 0xEE  # the specialization code
    with pytest.raises(ValueError, match="^238 is not a valid Specialization$"):
        Measurement.decode(bytes(raw))


def test_equal_values_of_another_class_fail_to_encode():
    Measurement(Specialization.SCALE, 1, 0, (("mass_kg", 700),)).encode()
    with pytest.raises(struct.error):
        Measurement(Specialization.SCALE, 1, 0, (("mass_kg", 700.0),)).encode()


def test_decoding_an_unknown_metric_code_or_a_cut_short_entry_raises():
    raw = Measurement.build(Specialization.HEART_RATE, 3, 10, HEART_READINGS).encode()
    assert Measurement.decode(raw) == Measurement.build(
        Specialization.HEART_RATE, 3, 10, HEART_READINGS
    )
    bad = bytearray(raw)
    bad[14] = 0xEE  # the first metric code
    with pytest.raises(UnknownMetric):
        Measurement.decode(bytes(bad))
    with pytest.raises(struct.error):
        Measurement.decode(raw[:-1])  # the last entry cut short


def test_a_measurement_without_values_is_invalid():
    for values in ((), None):
        with pytest.raises(InvalidMeasurement):
            Measurement(None, 0, 0, values)


def test_a_measurement_always_checks_its_seq_and_values():
    m = Measurement.build(Specialization.HEART_RATE, 1, 0, HEART_READINGS)
    with pytest.raises(InvalidMeasurement):
        Measurement(Specialization.HEART_RATE, 2, 0, m.values[:2])
    with pytest.raises(InvalidMeasurement):
        Measurement(Specialization.HEART_RATE, 2**32, 0, m.values)


def record_payloads(stack, monkeypatch):
    """The payloads ``McapManager.send`` was given, in order."""
    payloads = []
    send = stack.mcap.send

    def recording(channel, sender, payload, op=None):
        payloads.append(payload)
        return send(channel, sender, payload, op)

    monkeypatch.setattr(stack.mcap, "send", recording)
    return payloads


def count_calls(monkeypatch, *names):
    """Count calls of the named ``Measurement`` classmethods."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(cls, *args, _name=name, _real=getattr(Measurement, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(Measurement, name, classmethod(counted))
    return calls


def test_equal_readings_of_another_class_are_scaled_anew():
    # 0.15 * 10 rounds to 1.5 in floats and so to 2; the exact value of the
    # same float, as a Fraction, is just under 0.15 and scales to 1.
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink, Specialization.SCALE)
    received = record_readings(stack, sink)
    series = [
        {"mass_kg": 0.15},
        {"mass_kg": Fraction(0.15)},
        # Equal dicts whose classes sit under the other names, in another order.
        {"mass_kg": 0.15, "temperature_c": Fraction(0.15)},
        {"temperature_c": 0.15, "mass_kg": Fraction(0.15)},
    ]
    ops = [stack.hdp.send_measurement(assoc, readings) for readings in series]
    run_while(stack, lambda: not all(op.done for op in ops), 1_000_000)
    assert [m.values for _a, m, _ts, _at in received] == [
        (("mass_kg", 2),),
        (("mass_kg", 1),),
        (("mass_kg", 2), ("temperature_c", 1)),
        (("mass_kg", 1), ("temperature_c", 2)),
    ]


def test_a_repeated_reading_past_the_last_seq_raises_and_takes_no_seq():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    assoc.next_seq = 2**32 - 1
    stack.hdp.send_measurement(assoc, HEART_READINGS)
    with pytest.raises(InvalidMeasurement, match="seq must fit in 32 bits"):
        stack.hdp.send_measurement(assoc, HEART_READINGS)
    assert assoc.next_seq == 2**32
    tx = [e.detail["seq"] for e in stack.engine.trace if e.ev == "measurement_tx"]
    assert tx == [2**32 - 1]


def test_an_association_keeps_only_its_last_readings(monkeypatch):
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    payloads = record_payloads(stack, monkeypatch)
    for i in range(1_000):
        readings = dict(HEART_READINGS, heart_rate_bpm=float(i))
        now = stack.engine.now
        stack.hdp.send_measurement(assoc, readings)
        raw = payloads[-1]
        assert raw == Measurement.build(Specialization.HEART_RATE, i + 1, now, readings).encode()
        stack.engine.run_until(now + 100_000)
    assert assoc.last_readings == ([(k, float, v) for k, v in readings.items()], 3, raw[14:])


@pytest.mark.parametrize("callback", [False, True])
def test_a_series_is_built_once_and_decoded_only_for_a_callback(monkeypatch, callback):
    """A 100-reading series of one readings dict, half of it buffered across
    a dropped link, builds one ``Measurement``; the sink decodes each reading
    for its callback, which gets ``Measurement.decode`` of the bytes sent,
    time-stamped when the reading was submitted, and decodes none without
    one."""
    stack = make_stack()
    source, sink = sensor_pair(stack, source_offset_us=1500)
    assoc = operating_assoc(stack, source, sink)
    payloads = record_payloads(stack, monkeypatch)
    received = record_readings(stack, sink) if callback else []
    calls = count_calls(monkeypatch, "build", "decode")
    ops, submitted = [], []
    for i in range(100):
        if i == 50:
            stack.links.drop_link(source.address, sink.address)
        submitted.append(stack.engine.now + 1500)  # the source's local clock
        ops.append(stack.hdp.send_measurement(assoc, HEART_READINGS))
        stack.engine.run_until(stack.engine.now + 20_000)
    assert len(assoc.buffer) > 0
    run_while(stack, lambda: not all(op.done for op in ops), 30_000_000)
    assert all(op.result is SendStatus.DELIVERED for op in ops)
    rx = [e.detail["seq"] for e in stack.engine.trace if e.ev == "measurement_rx"]
    assert rx == list(range(1, 101))
    assert calls == {"build": 1, "decode": 100 if callback else 0}
    if callback:
        got = [m for _a, m, _ts, _at in received]
        assert got == [Measurement.decode(raw) for raw in payloads]
        assert [m.source_timestamp_us for m in got] == submitted
        assert all(m.values == got[0].values for m in got)


def test_interleaved_associations_each_reuse_their_own_readings(monkeypatch):
    stack = make_stack()
    sink = add_device(stack, 3, position=(1.0, 0.0))
    stack.links.set_pin(sink.address, Pin.from_text("1234"))
    stack.hdp.set_role(sink.address, "sink")
    assocs = []
    for i in (1, 2):
        source = add_device(stack, i, position=(0.0, float(i)))
        stack.links.set_pin(source.address, Pin.from_text("1234"))
        stack.hdp.set_role(source.address, "source")
        connect(stack, sink, source)
        stack.mcap.open_control_channel(source, sink)
        assocs.append(operating_assoc(stack, source, sink))
    received = record_readings(stack, sink)
    calls = count_calls(monkeypatch, "build")
    readings = [dict(HEART_READINGS, heart_rate_bpm=60.0 + i) for i in range(2)]
    ops = [
        stack.hdp.send_measurement(assoc, r)
        for _ in range(3)
        for assoc, r in zip(assocs, readings)
    ]
    run_while(stack, lambda: not all(op.done for op in ops), 1_000_000)
    # Each send after an association's first reused its own readings.
    assert calls == {"build": 2}
    for i, assoc in enumerate(assocs):
        got = [m for a, m, _ts, _at in received if a is assoc]
        assert [m.value("heart_rate_bpm") for m in got] == [60.0 + i] * 3
        assert assoc.last_readings[0] == [(k, float, v) for k, v in readings[i].items()]


def test_audio_channel_kind_is_rejected():
    validate_channel_kind(ChannelKind.DATA)
    with pytest.raises(AudioNotSupported):
        validate_channel_kind(ChannelKind.AUDIO)


# -- association lifecycle --------------------------------------------------


def test_association_reaches_operating_and_emits_assoc():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    events = [e for e in stack.engine.trace if e.ev == "assoc"]
    assert len(events) == 1
    assert events[0].detail["specialization"] == "heart_rate"
    assert events[0].detail["sink"] == str(sink.address)
    assert assoc.reliable_mdl is not None and assoc.reliable_mdl.reliable
    assert assoc.clock_map is not None


def test_associate_requires_authenticated_link():
    stack = make_stack()
    source = add_device(stack, 1)
    sink = add_device(stack, 2, position=(1.0, 0.0))
    connect(stack, sink, source)  # no PINs
    with pytest.raises(AuthRequired):
        stack.hdp.associate(source, sink, Specialization.HEART_RATE)


def test_associate_requires_control_channel():
    stack = make_stack()
    source = add_device(stack, 1)
    sink = add_device(stack, 2, position=(1.0, 0.0))
    stack.links.set_pin(source.address, Pin.from_text("1"))
    stack.links.set_pin(sink.address, Pin.from_text("1"))
    connect(stack, sink, source)
    with pytest.raises(NoControlChannel):
        stack.hdp.associate(source, sink, Specialization.HEART_RATE)


def test_sink_whitelist_rejects_other_specializations():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    stack.hdp.set_sink_whitelist(sink.address, {Specialization.THERMOMETER})
    with pytest.raises(SpecializationRejected):
        stack.hdp.associate(source, sink, Specialization.HEART_RATE)


def record_readings(stack, sink):
    """What the sink's callback saw: (assoc, measurement, sink ts, arrival)."""
    received = []
    stack.hdp.set_sink_callback(
        sink.address,
        lambda assoc, m, sink_ts: received.append((assoc, m, sink_ts, stack.engine.now)),
    )
    return received


def test_measurement_reaches_sink_with_mapped_timestamp():
    stack = make_stack()
    source, sink = sensor_pair(stack, source_offset_us=1500)
    assoc = operating_assoc(stack, source, sink)
    received = record_readings(stack, sink)
    op = stack.hdp.send_measurement(assoc, HEART_READINGS)
    run_while(stack, lambda: not op.done, 1_000_000)
    assert op.result is SendStatus.DELIVERED
    assert len(received) == 1
    got_assoc, measurement, sink_ts, received_at = received[0]
    assert got_assoc is assoc
    assert measurement.seq == 1
    assert dict(measurement.values)["heart_rate_bpm"] == 720
    # Clock mapping: sink timestamp within sync accuracy of true arrival.
    assert sink_ts == measurement.source_timestamp_us - assoc.clock_map.offset_us
    assert abs(sink_ts - received_at) <= (
        assoc.clock_map.accuracy_us + 2  # plus propagation both ways
    )
    rx = [e for e in stack.engine.trace if e.ev == "measurement_rx"]
    assert rx and rx[0].detail["seq"] == 1


def test_a_sink_callback_sees_only_its_own_sinks_readings():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    other_source, other_sink = sensor_pair(stack, source_i=3, sink_i=4)
    assoc = operating_assoc(stack, source, sink)
    other_assoc = operating_assoc(stack, other_source, other_sink)
    received = record_readings(stack, sink)
    ops = [
        stack.hdp.send_measurement(other_assoc, HEART_READINGS),
        stack.hdp.send_measurement(assoc, HEART_READINGS),
        stack.hdp.send_measurement(other_assoc, HEART_READINGS),
    ]
    run_while(stack, lambda: not all(op.done for op in ops), 1_000_000)
    assert [op.result for op in ops] == [SendStatus.DELIVERED] * 3
    assert [(got, m.seq) for got, m, _ts, _at in received] == [(assoc, 1)]


def test_a_sink_callback_needs_a_registered_device():
    stack = make_stack()
    with pytest.raises(UnknownDevice):
        stack.hdp.set_sink_callback(addr(9), lambda assoc, m, sink_ts: None)


def test_measurements_buffer_while_link_down_and_flush_on_restore():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    received = record_readings(stack, sink)
    stack.links.drop_link(source.address, sink.address)
    ops = [stack.hdp.send_measurement(assoc, HEART_READINGS) for _ in range(5)]
    assert not any(op.done for op in ops)
    buffered = [e for e in stack.engine.trace if e.ev == "buffered"]
    assert [(e.detail["seq"], e.detail["depth"]) for e in buffered] == [
        (1, 1),
        (2, 2),
        (3, 3),
        (4, 4),
        (5, 5),
    ]
    # Auto-reconnect pages from the link master once per retry interval.
    run_while(stack, lambda: len(received) < 5, 15_000_000)
    assert [r[1].seq for r in received] == [1, 2, 3, 4, 5]
    assert all(op.result is SendStatus.DELIVERED for op in ops)


def test_buffer_evicts_oldest_when_full():
    stack = make_stack(buffer_capacity=3)
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    stack.links.drop_link(source.address, sink.address)
    assoc.auto_reconnect = False
    ops = [stack.hdp.send_measurement(assoc, HEART_READINGS) for _ in range(5)]
    evicted = [e for e in stack.engine.trace if e.ev == "evicted"]
    assert [e.detail["seq"] for e in evicted] == [1, 2]
    assert [op.result for op in ops[:2]] == [SendStatus.EVICTED] * 2
    assert not any(op.done for op in ops[2:])
    assert len(assoc.buffer) == 3


def test_release_abandons_pending_and_blocks_further_sends():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    stack.links.drop_link(source.address, sink.address)
    assoc.auto_reconnect = False
    for _ in range(3):
        stack.hdp.send_measurement(assoc, HEART_READINGS)
    abandoned = stack.hdp.release(assoc)
    assert abandoned == 3
    assert assoc.state is AssocState.RELEASED
    released = [e for e in stack.engine.trace if e.ev == "released"]
    assert released and released[0].detail["abandoned"] == 3
    with pytest.raises(Released):
        stack.hdp.send_measurement(assoc, HEART_READINGS)
    with pytest.raises(AlreadyReleased):
        stack.hdp.release(assoc)


def test_release_counts_only_undelivered():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    first = stack.hdp.send_measurement(assoc, HEART_READINGS)
    run_while(stack, lambda: not first.done, 1_000_000)
    abandoned = stack.hdp.release(assoc)
    assert abandoned == 0
    assert first.result is SendStatus.DELIVERED


def test_release_settles_the_channel_queue_by_channel_seq():
    # Evictions make channel seqs (1, 2, 3) differ from reading seqs (4, 5,
    # 6); release happens after reading 5 arrives and before its ack does.
    stack = make_stack(buffer_capacity=3, propagation_us=2000)
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    stack.links.drop_link(source.address, sink.address)
    ops = [stack.hdp.send_measurement(assoc, HEART_READINGS) for _ in range(6)]

    def received():
        return [e.detail["seq"] for e in stack.engine.trace if e.ev == "measurement_rx"]

    run_while(stack, lambda: len(received()) < 2, 15_000_000, step_us=100)
    assert received() == [4, 5]
    assert stack.hdp.release(assoc) == 1
    assert [op.result for op in ops] == [SendStatus.EVICTED] * 3 + [
        SendStatus.DELIVERED,
        SendStatus.DELIVERED,
        SendStatus.ABANDONED,
    ]
    counts = compute_metrics(stack.engine.trace.events).measurements
    assert (counts.sent, counts.delivered, counts.evicted, counts.abandoned) == (6, 2, 3, 1)
    assert counts.in_flight == 0


# -- the receive path -------------------------------------------------------


def test_a_reliable_payload_past_the_next_seq_is_not_taken(monkeypatch):
    """A reliable payload whose seq is above the receipt watermark + 1 is
    dropped where it lands: no ack frame, no ``mdl_rx``, no ``measurement_rx``
    fed to the fold, and the watermark stays."""
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    first = stack.hdp.send_measurement(assoc, HEART_READINGS)
    run_while(stack, lambda: not first.done, 1_000_000)
    channel = assoc.reliable_mdl
    state = channel.senders[source]
    last = state.rx_last
    assert last == 1
    frames = []
    send_on_link = stack.links.send_on_link

    def recording(link, sender, proto, body):
        if proto == PROTO_MCAP:
            frames.append((sender, body[0]))
        return send_on_link(link, sender, proto, body)

    monkeypatch.setattr(stack.links, "send_on_link", recording)
    fed = []
    trace = stack.engine.trace
    trace.feed, trace.feed_events = (lambda *event: fed.append(event)), MetricsFold.EVENTS
    mark = len(trace.events)
    reading = Measurement.build(Specialization.HEART_RATE, assoc.next_seq, 0, HEART_READINGS)
    stack.mcap._tx_data(channel, source, last + 2, reading.encode(), attempts=0)
    stack.engine.run_until(stack.engine.now + 100_000)
    assert [e.ev for e in trace.events[mark:]] == ["mdl_send"]
    assert frames == [(source, _OP_DATA)]
    assert not any(ev == "measurement_rx" for _t, ev, _dev, _detail in fed)
    assert state.rx_last == last


def test_a_payload_the_sink_sends_on_the_reliable_channel_is_no_reading():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    received = record_readings(stack, sink)
    mark = len(stack.engine.trace.events)
    reading = Measurement.build(Specialization.HEART_RATE, assoc.next_seq, 0, HEART_READINGS)
    op = stack.mcap.send(assoc.reliable_mdl, sink, reading.encode())
    run_while(stack, lambda: not op.done, 1_000_000)
    assert op.result is SendStatus.DELIVERED
    events = [(e.ev, e.dev) for e in stack.engine.trace.events[mark:]]
    assert ("mdl_rx", str(source.address)) in events
    assert not any(ev == "measurement_rx" for ev, _dev in events)
    assert received == []


def test_sink_learns_of_link_loss_within_supervision_budget():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    operating_assoc(stack, source, sink)
    silence_from = stack.engine.now
    stack.engine.move_device(source.address, (100.0, 0.0))
    run_while(
        stack,
        lambda: not any(e.ev == "link_lost" for e in stack.engine.trace),
        10_000_000,
    )
    lost = [e for e in stack.engine.trace if e.ev == "link_lost"]
    budget = stack.params.keepalive_interval_us * (
        stack.params.keepalive_miss_threshold + 1
    )
    assert lost and lost[0].t_us - silence_from <= budget


# -- re-paging a lost link ----------------------------------------------------

REPAGE_US = SimParams().reconnect_retry_interval_us


@pytest.mark.parametrize("seed", [1, 2])
def test_a_link_lost_again_within_an_interval_is_repaged_one_interval_after_the_loss(seed):
    # Each drop comes under an interval after the re-page that restored the
    # link, so a re-page left over from the drop before would come early.
    path = Path(__file__).parent / "golden" / "repage_flaps.json"
    trace, _report = run_scenario(load_scenario(str(path)), seed)
    sensor = "AA:00:00:00:00:01"
    events = [
        (e.t_us, e.ev)
        for e in trace
        if e.detail.get("peer", e.detail.get("target")) == sensor
        and e.ev in ("link_lost", "link_restored", "page")
    ]
    losses = [t for t, ev in events if ev == "link_lost"]
    assert losses == [8_000_000, 9_300_000, 10_800_000]
    assert [ev for t, ev in events if t >= losses[0]] == [
        "link_lost", "page", "link_restored"
    ] * 3
    assert [t for t, ev in events if ev == "page" and t > losses[0]] == [
        t + REPAGE_US for t in losses
    ]


FLAP_STEPS = ("send", "drop", "out", "back")
GAPS_US = (100_000, 300_000, 1_000_000, 1_300_000, 2_500_000)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(FLAP_STEPS), st.sampled_from(GAPS_US)),
        min_size=4,
        max_size=14,
    )
)
# Dropped again 0.3 s after the re-page 1 s after the first drop restored it.
@example(steps=[("send", 100_000), ("drop", 1_300_000), ("drop", 2_500_000), ("send", 100_000)])
def test_repages_keep_their_interval_and_readings_arrive_in_order(steps):
    """At loss 0, whatever the drops, walk-outs and returns: every page after
    a link loss comes a whole number (at least one) of re-page intervals
    after the latest loss, and each association receives rising seqs."""
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    link = stack.links.link_between(source.address, sink.address)
    for step, gap_us in steps:
        if step == "send":
            stack.hdp.send_measurement(assoc, HEART_READINGS)
        elif step == "drop" and link.state is LinkState.CONNECTED:
            stack.links.drop_link(source.address, sink.address)
        elif step in ("out", "back"):
            stack.engine.move_device(source.address, (60.0 if step == "out" else 0.0, 0.0))
        stack.engine.run_until(stack.engine.now + gap_us)
    stack.engine.move_device(source.address, (0.0, 0.0))
    stack.engine.run_until(stack.engine.now + 8_000_000)

    lost, seqs = None, {}
    for e in stack.engine.trace:
        if e.ev == "link_lost":
            lost = e.t_us
        elif e.ev == "page" and lost is not None:
            intervals, rest = divmod(e.t_us - lost, REPAGE_US)
            assert intervals >= 1 and rest == 0, (lost, e.t_us)
        elif e.ev == "measurement_rx":
            seqs.setdefault(e.detail["assoc_id"], []).append(e.detail["seq"])
    for received in seqs.values():
        assert all(a < b for a, b in zip(received, received[1:]))


def test_seq_numbers_are_per_association_and_monotonic():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    for _ in range(4):
        stack.hdp.send_measurement(assoc, HEART_READINGS)
    tx = [e.detail for e in stack.engine.trace if e.ev == "measurement_tx"]
    assert [(d["assoc_id"], d["seq"]) for d in tx] == [(assoc.assoc_id, s) for s in (1, 2, 3, 4)]


def test_rejected_reading_takes_no_seq():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    with pytest.raises(InvalidMeasurement):
        stack.hdp.send_measurement(assoc, {"heart_rate_bpm": 70.0})
    stack.hdp.send_measurement(assoc, HEART_READINGS)
    tx = [e.detail["seq"] for e in stack.engine.trace if e.ev == "measurement_tx"]
    assert tx == [1]


def test_an_invalid_reading_after_a_valid_one_raises_and_takes_no_seq():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    stack.hdp.send_measurement(assoc, HEART_READINGS)
    stack.hdp.send_measurement(assoc, HEART_READINGS)
    with pytest.raises(InvalidMeasurement):
        stack.hdp.send_measurement(assoc, dict(HEART_READINGS, heart_rate_bpm=3e8))
    stack.hdp.send_measurement(assoc, HEART_READINGS)
    tx = [e.detail["seq"] for e in stack.engine.trace if e.ev == "measurement_tx"]
    assert tx == [1, 2, 3]


def test_a_readings_dict_changed_between_sends_is_sent_as_changed():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    received = record_readings(stack, sink)
    readings = dict(HEART_READINGS)
    ops = [stack.hdp.send_measurement(assoc, readings)]
    readings["heart_rate_bpm"] = 95.0
    ops.append(stack.hdp.send_measurement(assoc, readings))
    ops.append(stack.hdp.send_measurement(assoc, readings))
    run_while(stack, lambda: not all(op.done for op in ops), 1_000_000)
    assert [dict(m.values)["heart_rate_bpm"] for _a, m, _ts, _at in received] == [720, 950, 950]


@pytest.mark.parametrize("step", ["create_data_channel", "sync_clocks"])
def test_a_set_up_step_that_ends_after_release_is_ignored(monkeypatch, step):
    """A set-up step's Op that resolves after release neither takes the next
    step nor makes the association operating."""
    stack = make_stack()
    source, sink = sensor_pair(stack)
    ops = []
    take_step = getattr(stack.mcap, step)

    def take_then_release(*args, **kwargs):
        ops.append(take_step(*args, **kwargs))
        stack.engine.schedule(stack.engine.now, lambda: stack.hdp.release(assoc))
        return ops[-1]

    monkeypatch.setattr(stack.mcap, step, take_then_release)
    assoc = stack.hdp.associate(source, sink, Specialization.HEART_RATE)
    stack.engine.run_until(stack.engine.now + 10_000_000)
    assert len(ops) == 1 and ops[0].done and ops[0].error is None
    assert assoc.state is AssocState.RELEASED and assoc.clock_map is None
    assert (assoc.reliable_mdl is None) == (step == "create_data_channel")
    assert assoc._set_up_timer == -1
    assert [e.ev for e in stack.engine.trace if e.ev.startswith(("assoc", "released"))] == [
        "released"
    ]


def test_readings_buffered_before_a_failed_association_are_abandoned():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    stack.engine.move_device(source.address, (100.0, 0.0))
    assoc = stack.hdp.associate(source, sink, Specialization.HEART_RATE)
    ops = [stack.hdp.send_measurement(assoc, HEART_READINGS) for _ in range(3)]
    stack.engine.run_until(30_000_000)
    assert assoc.state is AssocState.RELEASED
    assert [e.ev for e in stack.engine.trace if e.ev in ("assoc_failed", "released")] == [
        "assoc_failed",
        "released",
    ]
    assert all(op.result is SendStatus.ABANDONED for op in ops)
    counts = compute_metrics(stack.engine.trace.events).measurements
    assert (counts.sent, counts.abandoned, counts.in_flight) == (3, 3, 0)


# Sends three times as likely as each link or mobility step.
SEND_STEPS = ("send", "send", "send", "drop", "out", "back", "wait")


@settings(max_examples=20, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    loss=st.sampled_from([0.0, 0.05, 0.2]),
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.lists(st.sampled_from(SEND_STEPS), min_size=8, max_size=30),
    release=st.booleans(),
)
def test_every_reading_handle_finishes(capacity, loss, seed, steps, release):
    stack = make_stack(seed=seed, buffer_capacity=capacity)
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    stack.engine.medium = MediumModel(loss_probability=loss)
    link = stack.links.link_between(source.address, sink.address)
    ops = []
    for step in steps:
        if step == "send":
            ops.append(stack.hdp.send_measurement(assoc, HEART_READINGS))
        elif step == "drop" and link.state is LinkState.CONNECTED:
            stack.links.drop_link(source.address, sink.address)
        elif step in ("out", "back"):
            stack.engine.move_device(source.address, (60.0 if step == "out" else 0.0, 0.0))
        stack.engine.run_until(stack.engine.now + 400_000)
    if release:
        stack.hdp.release(assoc)
    stack.engine.move_device(source.address, (0.0, 0.0))
    run_while(stack, lambda: not all(op.done for op in ops), 300_000_000, step_us=500_000)

    assert all(op.done for op in ops)
    results = [op.result for op in ops]
    events = stack.engine.trace.events
    assert results.count(SendStatus.DELIVERED) == sum(e.ev == "measurement_rx" for e in events)
    assert results.count(SendStatus.EVICTED) == sum(e.ev == "evicted" for e in events)
    assert results.count(SendStatus.ABANDONED) == sum(
        e.detail["abandoned"] for e in events if e.ev == "released"
    )
    assert compute_metrics(events).measurements.in_flight == 0


def test_a_channel_created_for_an_association_released_meanwhile_is_closed(monkeypatch):
    """Release at the instant the channel create starts: the channel it
    makes is closed once it is made, not left active for the rest of the run."""
    stack = make_stack()
    source, sink = sensor_pair(stack)
    ops = []
    create = stack.mcap.create_data_channel

    def create_then_release(*args, **kwargs):
        ops.append(create(*args, **kwargs))
        stack.engine.schedule(stack.engine.now, lambda: stack.hdp.release(assoc))
        return ops[-1]

    monkeypatch.setattr(stack.mcap, "create_data_channel", create_then_release)
    assoc = stack.hdp.associate(source, sink, Specialization.HEART_RATE)
    stack.engine.run_until(stack.engine.now + 60_000_000)
    channel = ops[0].result
    assert assoc.state is AssocState.RELEASED and assoc.reliable_mdl is None
    assert channel.mdl_id == 1 and channel.state is ChannelState.CLOSED
    closes = [e for e in stack.engine.trace if e.ev == "mdl_close"]
    assert [(e.detail["mdl_id"], e.detail["mode"]) for e in closes] == [(1, "delete")]


def test_an_answer_landing_after_release_takes_no_set_up_step():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    stack.engine.medium = MediumModel(propagation_us=200_000)
    assoc = stack.hdp.associate(source, sink, Specialization.HEART_RATE)
    stack.engine.run_until(stack.engine.now + 10)
    stack.hdp.release(assoc)
    stack.engine.run_until(stack.engine.now + 2_000_000)
    events = [e.ev for e in stack.engine.trace]
    after = stack.engine.trace.events[events.index("released"):]
    assert [e.detail["op"] for e in after if e.ev == "mcap_tx"] == []
    assert assoc.state is AssocState.RELEASED and assoc.reliable_mdl is None


def test_an_association_released_by_an_earlier_link_observer_ignores_the_loss():
    """An observer registered before the association's releases it while the
    link loss is being notified; the association's own observer, called in
    the same notify, then starts no re-page."""
    stack = make_stack()
    source, sink = sensor_pair(stack)
    link = stack.links.link_between(source.address, sink.address)
    link.on_state_change(
        lambda lk: stack.hdp.release(assoc) if lk.state is LinkState.LOST else None
    )
    assoc = operating_assoc(stack, source, sink)
    mark = len(stack.engine.trace.events)
    stack.links.drop_link(source.address, sink.address)
    stack.engine.run_until(stack.engine.now + 5_000_000)
    assert assoc.state is AssocState.RELEASED and assoc._repage is None
    assert link.state is LinkState.LOST
    assert [e.ev for e in stack.engine.trace.events[mark:] if e.ev in ("page", "released")] == [
        "released"
    ]


def test_a_restored_link_leaves_the_closed_channel_of_its_association_closed():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    channel = assoc.reliable_mdl
    closing = stack.mcap.close_channel(channel, source)
    run_while(stack, lambda: not closing.done, 1_000_000)
    link = assoc.link
    mark = len(stack.engine.trace.events)
    stack.links.drop_link(source.address, sink.address)
    run_while(stack, lambda: link.state is LinkState.LOST, 10_000_000)
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert link.state is LinkState.CONNECTED and channel.state is ChannelState.CLOSED
    events = stack.engine.trace.events[mark:]
    assert "link_restored" in [e.ev for e in events]
    assert [e.detail["op"] for e in events if e.ev == "mcap_tx"] == []

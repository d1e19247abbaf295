from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    OutcomeKind,
    Released,
    scale_value,
    Specialization,
    SpecializationRejected,
    UnknownMetric,
    validate_channel_kind,
)
from hdpsim.metrics import compute_metrics
from hdpsim.security import Pin

from conftest import add_device, connect, make_stack, run_while

HEART_READINGS = {
    "heart_rate_bpm": 72.0,
    "filling_duration_ms": 180.5,
    "ascending_wave_index_pct": 15.2,
}


def sensor_pair(stack, source_offset_us=0):
    source = add_device(stack, 1, position=(0.0, 0.0), clock_offset_us=source_offset_us)
    sink = add_device(stack, 2, position=(1.0, 0.0))
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


def test_measurement_requires_known_metrics():
    with pytest.raises(UnknownMetric):
        Measurement.build(Specialization.SCALE, 1, 0, {"bogus_metric": 1.0})


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
    outcome = stack.hdp.send_measurement(assoc, HEART_READINGS)
    run_while(stack, lambda: not outcome.acked, 1_000_000)
    assert outcome.status is OutcomeKind.ACKED
    assert len(received) == 1
    got_assoc, measurement, sink_ts, received_at = received[0]
    assert got_assoc is assoc
    assert measurement.seq == outcome.seq == 1
    assert dict(measurement.values)["heart_rate_bpm"] == 720
    # Clock mapping: sink timestamp within sync accuracy of true arrival.
    assert sink_ts == measurement.source_timestamp_us - assoc.clock_map.offset_us
    assert abs(sink_ts - received_at) <= (
        assoc.clock_map.accuracy_us + 2  # plus propagation both ways
    )
    rx = [e for e in stack.engine.trace if e.ev == "measurement_rx"]
    assert rx and rx[0].detail["seq"] == 1


def test_measurements_buffer_while_link_down_and_flush_on_restore():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    received = record_readings(stack, sink)
    stack.links.drop_link(source.address, sink.address)
    outcomes = [stack.hdp.send_measurement(assoc, HEART_READINGS) for _ in range(5)]
    assert all(o.submitted == "buffered" for o in outcomes)
    buffered = [e for e in stack.engine.trace if e.ev == "buffered"]
    assert [e.detail["depth"] for e in buffered] == [1, 2, 3, 4, 5]
    # Auto-reconnect pages from the link master once per retry interval.
    run_while(stack, lambda: len(received) < 5, 15_000_000)
    assert [r[1].seq for r in received] == [o.seq for o in outcomes]
    assert all(o.acked for o in outcomes)


def test_buffer_evicts_oldest_when_full():
    stack = make_stack(buffer_capacity=3)
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    stack.links.drop_link(source.address, sink.address)
    assoc.auto_reconnect = False
    outcomes = [stack.hdp.send_measurement(assoc, HEART_READINGS) for _ in range(5)]
    evicted = [e for e in stack.engine.trace if e.ev == "evicted"]
    assert [e.detail["seq"] for e in evicted] == [1, 2]
    assert outcomes[0].status is OutcomeKind.EVICTED
    assert outcomes[1].status is OutcomeKind.EVICTED
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
    run_while(stack, lambda: not first.acked, 1_000_000)
    abandoned = stack.hdp.release(assoc)
    assert abandoned == 0
    assert first.status is OutcomeKind.ACKED


def test_release_settles_the_channel_queue_by_channel_seq():
    # Evictions make channel seqs (1, 2, 3) differ from reading seqs (4, 5,
    # 6); release happens after reading 5 arrives and before its ack does.
    stack = make_stack(buffer_capacity=3, propagation_us=2000)
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    stack.links.drop_link(source.address, sink.address)
    outcomes = [stack.hdp.send_measurement(assoc, HEART_READINGS) for _ in range(6)]

    def received():
        return [e.detail["seq"] for e in stack.engine.trace if e.ev == "measurement_rx"]

    run_while(stack, lambda: len(received()) < 2, 15_000_000, step_us=100)
    assert received() == [4, 5]
    assert stack.hdp.release(assoc) == 1
    for o in outcomes:
        o.refresh()
    assert [o.status for o in outcomes] == [OutcomeKind.EVICTED] * 3 + [
        OutcomeKind.ACKED,
        OutcomeKind.ACKED,
        OutcomeKind.ABANDONED,
    ]
    counts = compute_metrics(stack.engine.trace.events).measurements
    assert (counts.sent, counts.delivered, counts.evicted, counts.abandoned) == (6, 2, 3, 1)
    assert counts.in_flight == 0


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


def test_seq_numbers_are_per_association_and_monotonic():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assoc = operating_assoc(stack, source, sink)
    seqs = [stack.hdp.send_measurement(assoc, HEART_READINGS).seq for _ in range(4)]
    assert seqs == [1, 2, 3, 4]

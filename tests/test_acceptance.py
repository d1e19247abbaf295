"""End-to-end acceptance suite: one test per shipped guarantee.

Each test exercises the full stack through its public API and finishes by
printing a single "criterion NN ...: PASS" line (visible with pytest -s);
a failing assertion is the corresponding FAIL.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from hdpsim import cli
from hdpsim.discovery import DiscoverabilityMode
from hdpsim.engine import MediumModel
from hdpsim.hdp import (
    AssocState,
    AudioNotSupported,
    AuthRequired,
    ChannelKind,
    NoControlChannel,
    Specialization,
    validate_channel_kind,
)
from hdpsim.link import PiconetFull, pair_key
from hdpsim.mcap import ChannelState, NotAuthenticated, SendStatus
from hdpsim.runner import run_scenario
from hdpsim.scenario import validate_scenario
from hdpsim.security import LinkKey, Pin, apply_cipher

from conftest import add_device, connect, make_stack, run_while

FULL_SWEEP_US = 32 * 1_280_000  # one pass over all scan frequencies: 40.96 s

HEART_READINGS = {
    "heart_rate_bpm": 72.0,
    "filling_duration_ms": 180.0,
    "ascending_wave_index_pct": 15.0,
}


def sensor_pair(stack, source_offset_us=0, pin_sink="1234"):
    source = add_device(stack, 1, position=(0.0, 0.0), clock_offset_us=source_offset_us)
    sink = add_device(stack, 2, position=(1.0, 0.0))
    stack.links.set_pin(source.address, Pin.from_text("1234"))
    stack.links.set_pin(sink.address, Pin.from_text(pin_sink))
    stack.hdp.set_role(source.address, "source")
    stack.hdp.set_role(sink.address, "sink")
    connect(stack, sink, source)  # sink pages, so the sink is link master
    stack.mcap.open_control_channel(source, sink)
    return source, sink


def mcap_tx_count(stack):
    return sum(1 for e in stack.engine.trace if e.ev == "mcap_tx")


def test_criterion_01_discovery_bound():
    # 64 random scanner phases: a discoverable in-range device at loss 0 is
    # always found within one full frequency sweep.
    rng = random.Random(101)
    for trial in range(64):
        stack = make_stack(seed=trial)
        target = add_device(stack, 1, clock_offset_us=rng.randrange(FULL_SWEEP_US))
        inquirer = add_device(stack, 2, position=(1.0, 0.0))
        inquiry = stack.discovery.start_inquiry(inquirer, FULL_SWEEP_US)
        run_while(stack, lambda: not inquiry.results, FULL_SWEEP_US, step_us=1_280_000)
        assert inquiry.results, f"phase trial {trial} found nothing"
        assert inquiry.results[0].address == target.address
        assert inquiry.results[0].discovered_at <= FULL_SWEEP_US

    # A non-discoverable device is never found: 100 seeded runs of 120 s.
    for seed in range(100):
        stack = make_stack(seed=seed)
        phase = random.Random(seed).randrange(FULL_SWEEP_US)
        target = add_device(stack, 1, clock_offset_us=phase)
        inquirer = add_device(stack, 2, position=(1.0, 0.0))
        stack.discovery.set_discoverability(
            target, DiscoverabilityMode.NON_DISCOVERABLE
        )
        inquiry = stack.discovery.start_inquiry(inquirer, 120_000_000)
        stack.engine.run_until(120_000_000)
        assert inquiry.done and not inquiry.results, f"seed {seed} leaked a response"
        assert not any(e.ev == "inquiry_resp" for e in stack.engine.trace)
    print("criterion 01 discovery bound: PASS")


def test_criterion_02_limited_window_boundary():
    # The limited window closes at exactly t = 5 s. The scanner sits in the
    # window that listens on frequency 3, whose transmit slot starts 939 us
    # into each sweep cycle; propagation adds 1 us. Starting the inquiry at
    # 4_999_059 lands the frame at 4_999_999 (inside), one microsecond later
    # at 5_000_000 (outside).
    for start_us, expect_response in ((4_999_059, True), (4_999_060, False)):
        stack = make_stack()
        target = add_device(stack, 1, position=(1.0, 0.0))
        inquirer = add_device(stack, 2)
        stack.discovery.set_discoverability(
            target, DiscoverabilityMode.LIMITED, window_us=5_000_000
        )
        stack.engine.schedule(
            start_us,
            lambda d=inquirer: stack.discovery.start_inquiry(d, 200_000),
        )
        stack.engine.run_until(start_us + 300_000)
        arrival = start_us + 3 * 313 + 1
        responses = [e for e in stack.engine.trace if e.ev == "inquiry_resp"]
        if expect_response:
            assert arrival == 4_999_999
            assert len(responses) == 1
        else:
            assert arrival == 5_000_000
            assert responses == []
    print("criterion 02 limited window: PASS")


def _replay_topology(trace):
    """Re-derive topology from the trace; assert the caps at every step."""
    slaves: dict[str, set[str]] = {}
    pair_owner: dict[frozenset, str] = {}
    saw_multi_piconet_slave = False
    for event in trace:
        if event.ev in ("connected", "link_restored"):
            m, s = event.dev, event.detail["peer"]
            key = frozenset((m, s))
            assert key not in pair_owner, "pair connected twice"
            pair_owner[key] = m
            slaves.setdefault(m, set()).add(s)
        elif event.ev == "link_lost":
            m, s = event.dev, event.detail["peer"]
            pair_owner.pop(frozenset((m, s)), None)
            slaves.get(m, set()).discard(s)
        elif event.ev == "role_switch":
            new_m, new_s = event.dev, event.detail["peer"]
            key = frozenset((new_m, new_s))
            assert pair_owner.get(key) == new_s, "switch on unknown pair"
            pair_owner[key] = new_m
            slaves[new_s].discard(new_m)
            slaves.setdefault(new_m, set()).add(new_s)
        else:
            continue
        for master, members in slaves.items():
            assert len(members) <= 7, "piconet grew past seven slaves"
            assert master not in members
        enslaved_by: dict[str, set[str]] = {}
        for key, owner in pair_owner.items():
            (slave,) = set(key) - {owner}
            enslaved_by.setdefault(slave, set()).add(owner)
        if any(len(owners) >= 2 for owners in enslaved_by.values()):
            saw_multi_piconet_slave = True
    assert saw_multi_piconet_slave


def test_criterion_03_topology_rules():
    stack = make_stack()
    devices = {i: add_device(stack, i) for i in range(1, 11)}
    master = devices[1]
    for i in range(2, 9):  # slaves one through seven all accepted
        connect(stack, master, devices[i])
    assert len(stack.links.links_of(master.address)) == 7

    stack.discovery.note_known(master.address, devices[9].address)
    with pytest.raises(PiconetFull):
        stack.links.page(master, devices[9].address)
    assert stack.links.link_between(master.address, devices[9].address) is None

    # One of the slaves joins a second piconet under another master.
    connect(stack, devices[10], devices[2])
    as_slave = [
        link
        for link in stack.links.links_of(devices[2].address)
        if link.slave.address == devices[2].address
    ]
    assert len(as_slave) == 2

    link = stack.links.link_between(master.address, devices[3].address)
    stack.links.role_switch(link)
    stack.engine.run_until(stack.engine.now + 1_000_000)

    assert stack.links.topology_violations() == []
    _replay_topology(stack.engine.trace)
    print("criterion 03 topology: PASS")


def test_criterion_04_rate_cap():
    stack = make_stack()
    master = add_device(stack, 1)
    slaves = [add_device(stack, i) for i in range(2, 7)]
    for s in slaves:
        connect(stack, master, s)

    # Exact proportional split when demand doubles the cap.
    stack.links.set_rate_cap(master.address, 1000)
    granted = stack.links.admit_traffic(
        master.address, {slaves[0].address: 800, slaves[1].address: 800}
    )
    assert granted == {slaves[0].address: 500, slaves[1].address: 500}

    # The sum of grants never exceeds the cap, for any demand vector.
    rng = random.Random(404)
    for _ in range(1000):
        cap = rng.randrange(1, 2_000_000)
        stack.links.set_rate_cap(master.address, cap)
        chosen = rng.sample(slaves, rng.randrange(1, len(slaves) + 1))
        requested = {s.address: rng.randrange(0, 3_000_000) for s in chosen}
        granted = stack.links.admit_traffic(master.address, requested)
        assert sum(granted.values()) <= cap
        if sum(requested.values()) <= cap:
            assert granted == requested
        else:
            assert set(granted) == set(requested)
    print("criterion 04 rate cap: PASS")


def test_criterion_05_security_gates():
    # Equal PINs: pairing succeeds and the association reaches Operating.
    stack = make_stack()
    source, sink = sensor_pair(stack)
    assert any(e.ev == "auth_ok" for e in stack.engine.trace)
    assoc = stack.hdp.associate(source, sink, Specialization.HEART_RATE)
    run_while(stack, lambda: assoc.state is AssocState.ASSOCIATING, 10_000_000)
    assert assoc.state is AssocState.OPERATING

    # Unequal PINs: auth_fail on the trace, then every dependent layer
    # refuses service.
    stack = make_stack()
    source = add_device(stack, 1)
    sink = add_device(stack, 2, position=(1.0, 0.0))
    stack.links.set_pin(source.address, Pin.from_text("1234"))
    stack.links.set_pin(sink.address, Pin.from_text("9999"))
    stack.hdp.set_role(source.address, "source")
    stack.hdp.set_role(sink.address, "sink")
    connect(stack, sink, source)
    assert any(e.ev == "auth_fail" for e in stack.engine.trace)
    assert not any(e.ev == "auth_ok" for e in stack.engine.trace)
    with pytest.raises(NotAuthenticated):
        stack.mcap.open_control_channel(source, sink)
    with pytest.raises((AuthRequired, NoControlChannel)):
        stack.hdp.associate(source, sink, Specialization.HEART_RATE)

    # Cipher round-trip identity over random keys, clocks, and payloads.
    rng = random.Random(505)
    for _ in range(1000):
        key = LinkKey(rng.randbytes(16))
        clock = rng.randrange(2**40)
        payload = rng.randbytes(rng.randrange(257))
        assert apply_cipher(key, clock, apply_cipher(key, clock, payload)) == payload
    print("criterion 05 security: PASS")


def test_criterion_06_reconnect_efficiency():
    stack = make_stack()
    source, sink = sensor_pair(stack)
    control = stack.mcap.controls[pair_key(source.address, sink.address)]

    before = mcap_tx_count(stack)
    op = stack.mcap.create_data_channel(control, source, reliable=True)
    run_while(stack, lambda: not op.done, 10_000_000)
    channel = op.result
    assert channel is not None and channel.state is ChannelState.ACTIVE
    create_msgs = mcap_tx_count(stack) - before
    assert create_msgs == 4

    config_before = (channel.mdl_id, channel.reliable, channel.control.link.params.encode())

    # Walk out of range until the link dies, come back, restore the link.
    stack.engine.move_device(source.address, (60.0, 0.0))
    run_while(stack, lambda: channel.state is not ChannelState.SUSPENDED, 10_000_000)
    stack.engine.move_device(source.address, (0.0, 0.0))
    attempt = stack.links.page(sink, source.address)
    run_while(stack, lambda: not attempt.done, 10_000_000)
    assert attempt.error is None

    before = mcap_tx_count(stack)
    op2 = stack.mcap.reconnect_data_channel(channel, source)
    run_while(stack, lambda: not op2.done, 10_000_000)
    assert op2.error is None and op2.result is channel
    assert channel.state is ChannelState.ACTIVE
    reconnect_msgs = mcap_tx_count(stack) - before
    assert reconnect_msgs == 2

    config_after = (channel.mdl_id, channel.reliable, channel.control.link.params.encode())
    assert config_after == config_before
    print("criterion 06 reconnection efficiency: PASS")


def test_criterion_07_exactly_once_telemetry():
    for trial in range(50):
        rng = random.Random(7000 + trial)
        capacity = rng.choice((3, 6, 1024))
        stack = make_stack(seed=trial, buffer_capacity=capacity)
        source, sink = sensor_pair(stack)
        assoc = stack.hdp.associate(source, sink, Specialization.HEART_RATE)
        run_while(stack, lambda: assoc.state is AssocState.ASSOCIATING, 10_000_000)
        assert assoc.state is AssocState.OPERATING

        # Session is up; now run telemetry over a lossy, mobile schedule.
        loss = rng.uniform(0.0, 0.35)
        stack.engine.medium = MediumModel(
            loss_probability=loss, rng_seed=trial, propagation_us=1, jitter_us=0
        )
        start = stack.engine.now
        out_at = start + rng.randrange(1_000_000, 6_000_000)
        back_at = out_at + rng.randrange(1_000_000, 8_000_000)
        stack.engine.schedule(
            out_at, lambda: stack.engine.move_device(source.address, (60.0, 0.0))
        )
        stack.engine.schedule(
            back_at, lambda: stack.engine.move_device(source.address, (0.0, 0.0))
        )
        release_at = rng.randrange(10, 24) if trial % 2 == 0 else None
        ops = []
        received = []
        stack.hdp.set_sink_callback(
            sink.address, lambda _assoc, m, _sink_ts: received.append(m.seq)
        )

        for k in range(24):
            if assoc.state is AssocState.RELEASED:
                break
            ops.append(stack.hdp.send_measurement(assoc, HEART_READINGS))
            if release_at is not None and k == release_at:
                stack.hdp.release(assoc)
            stack.engine.run_until(stack.engine.now + 400_000)

        if assoc.state is not AssocState.RELEASED:
            run_while(
                stack, lambda: not all(op.done for op in ops), 180_000_000, step_us=500_000
            )

        assert ops, f"trial {trial} sent nothing"
        assert all(op.done for op in ops), f"trial {trial} left undecided readings"
        assert all(a < b for a, b in zip(received, received[1:])), (
            f"trial {trial} out of order or duplicated: {received}"
        )
        # Reading seqs count from 1 in send order.
        fates = {seq: op.result for seq, op in enumerate(ops, 1)}
        assert set(fates.values()) <= {
            SendStatus.DELIVERED,
            SendStatus.EVICTED,
            SendStatus.ABANDONED,
        }, f"trial {trial} fates {set(fates.values())}"
        delivered = {seq for seq, fate in fates.items() if fate is SendStatus.DELIVERED}
        assert set(received) == delivered, f"trial {trial} accounting"
    print("criterion 07 exactly-once telemetry: PASS")


def test_criterion_08_clock_sync():
    # Zero jitter: a +1500 us skew is recovered exactly.
    stack = make_stack()
    source, sink = sensor_pair(stack, source_offset_us=1500)
    control = stack.mcap.controls[pair_key(source.address, sink.address)]
    op = stack.mcap.sync_clocks(control, sink)
    run_while(stack, lambda: not op.done, 2_000_000, step_us=1_000)
    assert op.error is None
    assert op.result.offset_us == 1500
    assert op.result.accuracy_us == 1

    # +-50 us delivery jitter: the estimate stays within 50 us in at least
    # 99% of 1000 exchanges.
    stack = make_stack(jitter_us=50)
    source, sink = sensor_pair(stack, source_offset_us=1500)
    control = stack.mcap.controls[pair_key(source.address, sink.address)]
    within = 0
    for _ in range(1000):
        op = stack.mcap.sync_clocks(control, sink)
        run_while(stack, lambda: not op.done, 2_000_000, step_us=1_000)
        assert op.error is None
        if abs(op.result.offset_us - 1500) <= 50:
            within += 1
    assert within >= 990, f"only {within}/1000 within 50 us"
    print("criterion 08 clock sync: PASS")


def test_criterion_09_audio_rejection():
    # The API refuses the audio channel kind on every single attempt.
    refused = 0
    for _ in range(25):
        with pytest.raises(AudioNotSupported):
            validate_channel_kind(ChannelKind.AUDIO)
        refused += 1
    assert refused == 25
    validate_channel_kind(ChannelKind.DATA)  # the data kind passes

    # End to end: a scenario asking for audio records the refusal, and no
    # event other than that error ever mentions audio.
    doc = {
        "name": "audio-reject",
        "devices": [
            {"address": "AA:00:00:00:00:01", "pin": "1234", "role": "source"},
            {
                "address": "AA:00:00:00:00:02",
                "position": [1.0, 0.0],
                "pin": "1234",
                "role": "sink",
            },
        ],
        "timeline": [
            {
                "t_us": 0,
                "action": "start_inquiry",
                "device": "AA:00:00:00:00:02",
                "duration_us": 50_000,
            },
            {
                "t_us": 100_000,
                "action": "page",
                "device": "AA:00:00:00:00:02",
                "target": "AA:00:00:00:00:01",
            },
            {
                "t_us": 200_000,
                "action": "request_channel",
                "source": "AA:00:00:00:00:01",
                "sink": "AA:00:00:00:00:02",
                "kind": "audio",
            },
            {"t_us": 300_000, "action": "run_until"},
        ],
    }
    trace, report = run_scenario(validate_scenario(doc), seed=9)
    errors = [e for e in trace if e.ev == "error"]
    assert errors, "the refusal must be recorded"
    assert all(e.detail["error"] == "AudioNotSupported" for e in errors)
    for event in trace:
        if event.ev != "error":
            assert "audio" not in event.to_json()
    assert report.errors == {"AudioNotSupported": 1}
    print("criterion 09 audio rejection: PASS")


def test_criterion_10_demo_determinism(tmp_path, monkeypatch):
    digests = []
    for run in range(3):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli.main(["demo", "pulsemeter", "--seed", "42"]) == 0
        trace = (workdir / "pulsemeter_trace.jsonl").read_bytes()
        metrics = (workdir / "pulsemeter_metrics.json").read_bytes()
        digests.append(
            (
                hashlib.sha256(trace).hexdigest(),
                hashlib.sha256(metrics).hexdigest(),
            )
        )
    assert digests[0] == digests[1] == digests[2]
    # Regression pins: byte-identical outputs for the shipped demo at seed 42.
    assert digests[0] == (
        "95b06adee89168e1719bb42733172e317e2ccd74ad7827d99672bae565d68154",
        "fbef87e9837176354bce46f6b5d1f2afcfce684f5412c59711fbac446da51fdf",
    )
    # The demo story: delivery recovers everything sent despite the outage.
    metrics_doc = json.loads(metrics)
    assert metrics_doc["measurements"]["sent"] == 60
    assert metrics_doc["measurements"]["delivered"] == 60
    assert metrics_doc["measurements"]["evicted"] == 0
    assert metrics_doc["reconnect_handshake_msgs"] == [2]
    print("criterion 10 determinism: PASS")

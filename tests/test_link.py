from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdpsim.core import DeviceAddress
from hdpsim import link as link_module
from hdpsim.discovery import ConnectabilityMode
from hdpsim.link import (
    MAX_SLAVES,
    ConnectionParams,
    LinkError,
    LinkManager,
    LinkState,
    NotConnectable,
    NotDiscovered,
    PiconetFull,
    Unreachable,
    WouldViolateTopology,
    hop_frequency,
    negotiate_params,
)
from hdpsim.params import SimParams
from hdpsim.runner import HANDLERS, InvariantViolation, ScenarioRun
from hdpsim.scenario import load_scenario, validate_scenario

from conftest import add_device, addr, connect, make_stack, paired_pair


def test_page_establishes_link_with_pager_as_master():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    link, attempt = connect(stack, a, b)
    assert attempt.done and attempt.result is link
    assert link.master is a and link.slave is b
    assert link.state is LinkState.CONNECTED
    connected = [e for e in stack.engine.trace if e.ev == "connected"]
    assert len(connected) == 1
    assert connected[0].dev == str(a.address)
    assert connected[0].detail["peer"] == str(b.address)


def test_both_endpoints_see_identical_params():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    connect(stack, a, b)
    (link_a,) = stack.links.links_of(a.address)
    (link_b,) = stack.links.links_of(b.address)
    assert link_a is link_b
    assert link_a.params.encode() == link_b.params.encode()


def test_master_override_page_size_reaches_both_endpoints():
    stack = make_stack(page_size_bytes=512)
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    link, _ = connect(stack, a, b)
    assert link.params.page_size_bytes == 512
    assert stack.links.links_of(b.address)[0].params.page_size_bytes == 512


def test_negotiate_params_is_pure_and_pair_specific():
    params = SimParams()
    one = negotiate_params(addr(1), addr(2), 42, params)
    two = negotiate_params(addr(1), addr(2), 42, params)
    other_pair = negotiate_params(addr(1), addr(3), 42, params)
    other_seed = negotiate_params(addr(1), addr(2), 43, params)
    assert one == two
    assert one.hop_seed != other_pair.hop_seed
    assert one.hop_seed != other_seed.hop_seed


@given(t=st.integers(min_value=0, max_value=10**9))
def test_hop_frequency_stays_in_negotiated_range(t):
    params = ConnectionParams(
        hop_seed=12345, freq_low=3, freq_high=17, hop_interval_us=625, page_size_bytes=64
    )
    assert 3 <= hop_frequency(params, t) <= 17


def test_hop_frequency_constant_within_slot():
    params = negotiate_params(addr(1), addr(2), 1, SimParams())
    assert hop_frequency(params, 0) == hop_frequency(params, 624)


@settings(max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    t=st.integers(min_value=0, max_value=2**62),
)
@example(seed=0, t=0)
@example(seed=2**64 - 1, t=2**62)
def test_hop_frequency_from_the_pre_mixed_seed_equals_the_two_round_mix(seed, t):
    params = ConnectionParams(
        hop_seed=seed, freq_low=2, freq_high=30, hop_interval_us=625, page_size_bytes=64
    )
    slot = t // 625
    assert hop_frequency(params, t) == 2 + link_module._mix64(seed, slot) % 29
    # The pre-mixed state is derived: not encoded, compared or shown.
    assert ConnectionParams.decode(params.encode()) == params
    assert "hop_state" not in repr(params)
    assert dataclasses.replace(params, hop_interval_us=1250).hop_state == params.hop_state


@settings(max_examples=25, deadline=None)
@given(times=st.lists(st.integers(min_value=0, max_value=10**9), max_size=30))
def test_link_hop_cache_equals_hop_frequency_and_stays_out_of_eq_and_repr(times):
    stack = make_stack()
    link, _ = connect(stack, add_device(stack, 1), add_device(stack, 2, position=(1.0, 0.0)))
    before = repr(link)
    for t in times + [t + 1 for t in times]:  # repeats hit the cache
        assert link.frequency_at(t) == hop_frequency(link.params, t)
    assert repr(link) == before and "_hop" not in before
    assert dataclasses.replace(link, _hop_slot=-1, _hop_freq=0) == link


def test_page_requires_prior_discovery():
    stack = make_stack()
    a = add_device(stack, 1)
    add_device(stack, 2, position=(1.0, 0.0))
    with pytest.raises(NotDiscovered):
        stack.links.page(a, addr(2))


def test_page_rejects_non_connectable_target():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    stack.discovery.note_known(a.address, b.address)
    stack.discovery.set_connectability(b, ConnectabilityMode.NON_CONNECTABLE)
    with pytest.raises(NotConnectable):
        stack.links.page(a, b.address)


def test_page_rejects_out_of_range_target():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(100.0, 0.0))
    stack.discovery.note_known(a.address, b.address)
    with pytest.raises(Unreachable):
        stack.links.page(a, b.address)


def test_page_self_is_an_error():
    stack = make_stack()
    a = add_device(stack, 1)
    with pytest.raises(LinkError):
        stack.links.page(a, a.address)


def test_page_times_out_on_midway_loss():
    # Target moves away after the precheck; the attempt must fail, not hang.
    stack = make_stack(page_timeout_us=50_000)
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    stack.discovery.note_known(a.address, b.address)
    attempt = stack.links.page(a, b.address)
    stack.engine.move_device(b.address, (100.0, 0.0))
    stack.engine.run_until(100_000)
    assert attempt.done and attempt.result is None
    assert isinstance(attempt.error, Unreachable)
    failed = [e for e in stack.engine.trace if e.ev == "page_failed"]
    assert len(failed) == 1


def test_piconet_caps_at_seven_slaves():
    stack = make_stack()
    master = add_device(stack, 99)
    for i in range(1, 8):
        slave = add_device(stack, i, position=(1.0, float(i)))
        connect(stack, master, slave)
    assert len(stack.links.piconet(master.address)) == MAX_SLAVES
    eighth = add_device(stack, 8, position=(1.0, 8.0))
    stack.discovery.note_known(master.address, eighth.address)
    with pytest.raises(PiconetFull):
        stack.links.page(master, eighth.address)


def test_device_can_be_slave_in_two_piconets():
    stack = make_stack()
    m1 = add_device(stack, 1)
    m2 = add_device(stack, 2, position=(0.0, 1.0))
    shared = add_device(stack, 3, position=(1.0, 0.0))
    connect(stack, m1, shared)
    connect(stack, m2, shared)
    links = stack.links.links_of(shared.address)
    assert len(links) == 2
    assert all(link.slave is shared for link in links)
    assert {link.master.address for link in links} == {m1.address, m2.address}
    assert stack.links.topology_violations() == []


def test_keepalive_loss_detected_on_both_sides():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    link, _ = connect(stack, a, b)
    start = stack.engine.now
    stack.engine.move_device(b.address, (100.0, 0.0))
    stack.engine.run_until(start + 10_000_000)
    assert link.state is LinkState.LOST
    lost = [e for e in stack.engine.trace if e.ev == "link_lost"]
    assert len(lost) == 1  # one loss event per link loss
    # Detection within (miss threshold + 1) keepalive intervals.
    assert lost[0].t_us - start <= 4_000_000


def test_lost_link_restores_with_same_params_on_repage():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    link, _ = connect(stack, a, b)
    before = link.params.encode()
    stack.links.drop_link(a.address, b.address)
    assert link.state is LinkState.LOST
    restored_link, _ = connect(stack, a, b)
    assert restored_link is link
    assert link.state is LinkState.CONNECTED
    assert link.params.encode() == before
    restored = [e for e in stack.engine.trace if e.ev == "link_restored"]
    assert len(restored) == 1


def test_drop_link_emits_forced_loss():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    connect(stack, a, b)
    stack.links.drop_link(a.address, b.address)
    lost = [e for e in stack.engine.trace if e.ev == "link_lost"]
    assert lost and lost[0].detail["reason"] == "forced"


def test_role_switch_swaps_endpoints_and_piconets():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    link, _ = connect(stack, a, b)
    switched = stack.links.role_switch(link)
    assert switched.master is b and switched.slave is a
    assert stack.links.piconet(a.address) == {}
    assert stack.links.piconet(b.address) == {a.address: link}
    assert stack.links.topology_violations() == []
    events = [e for e in stack.engine.trace if e.ev == "role_switch"]
    assert len(events) == 1


# Device 0 is the hub, 1-8 are spokes and 9 is a shared slave. (pager,
# target): the hub pages every spoke, one more than its piconet holds, and
# the shared slave, which spoke 1 pages too; spoke 8 pages the hub, so a
# role switch can find the hub's piconet full.
TOPOLOGY_PAIRS = [(0, i) for i in range(1, 10)] + [(1, 9), (8, 0)]
TOPOLOGY_STEPS = st.tuples(st.sampled_from(["page", "page", "switch", "drop"]), st.sampled_from(TOPOLOGY_PAIRS))


@settings(max_examples=40, deadline=None)
@example(
    [("page", (0, i)) for i in range(1, 8)]
    + [("page", (0, 9)), ("page", (8, 0)), ("switch", (8, 0)), ("drop", (0, 1)), ("page", (0, 9))]
    + [("switch", (0, 2)), ("page", (0, 9)), ("switch", (8, 0)), ("page", (1, 9)), ("page", (0, 1))]
)
@example([("page", (0, i)) for i in range(1, 8)] + [("page", (8, 0)), ("drop", (8, 0)), ("page", (0, 8))])
@given(st.lists(TOPOLOGY_STEPS, min_size=1, max_size=20))
def test_the_piconet_view_is_the_links_each_device_masters(steps):
    stack = make_stack()
    links = stack.links
    devices = [add_device(stack, i, position=(float(i % 3), float(i // 3))) for i in range(10)]
    for kind, (i, j) in steps:
        pager, target = devices[i], devices[j]
        link = links.link_between(pager.address, target.address)
        live = link is not None and link.state is LinkState.CONNECTED
        if kind == "page":
            view = links.piconet(pager.address)
            stack.discovery.note_known(pager.address, target.address)
            if live:
                assert links.page(pager, target.address).result is link
            elif link is None and len(view) >= MAX_SLAVES:
                # Only a new link adds a slave: a lost one is restored with
                # its master unchanged, whichever end pages.
                with pytest.raises(PiconetFull):
                    links.page(pager, target.address)
            else:
                connect(stack, pager, target)
        elif not live:
            continue
        elif kind == "drop":
            links.drop_link(pager.address, target.address)
        else:
            view = links.piconet(link.slave.address)
            if len(view) >= MAX_SLAVES and link.master.address not in view:
                with pytest.raises(WouldViolateTopology):
                    links.role_switch(link)
            else:
                links.role_switch(link)
        assert links.topology_violations() == []
        for device in devices:
            assert links.piconet(device.address) == {
                lk.slave.address: lk for lk in links.links.values() if lk.master is device
            }


def test_a_full_master_re_pages_a_lost_link_it_is_the_slave_of():
    stack = make_stack()
    hub = add_device(stack, 0)
    for i in range(1, MAX_SLAVES + 1):
        connect(stack, hub, add_device(stack, i, position=(float(i % 3), float(i // 3))))
    eighth = add_device(stack, MAX_SLAVES + 1, position=(1.0, 1.0))
    link, _ = connect(stack, eighth, hub)
    assert len(stack.links.piconet(hub.address)) == MAX_SLAVES
    stack.links.drop_link(hub.address, eighth.address)
    restored, attempt = connect(stack, hub, eighth)
    assert restored is link and attempt.result is link
    assert link.state is LinkState.CONNECTED and link.master is eighth
    assert len(stack.links.piconet(hub.address)) == MAX_SLAVES
    assert stack.links.topology_violations() == []


def supervision_timers(stack):
    """Pending events whose callback the link layer scheduled."""
    return [key for key, fn in stack.engine._entries.items() if fn.__module__ == "hdpsim.link"]


def test_idle_link_schedules_one_supervision_event_per_keepalive_interval(monkeypatch):
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    link, _ = connect(stack, a, b)
    interval = stack.links.params.keepalive_interval_us
    scheduled = []
    schedule = stack.engine.schedule

    def record(at, fn):
        if fn.__module__ == "hdpsim.link":
            scheduled.append(at)
        return schedule(at, fn)

    monkeypatch.setattr(stack.engine, "schedule", record)
    stack.engine.run_until(stack.engine.now + 10 * interval)
    assert len(scheduled) == 10
    assert {later - earlier for earlier, later in zip(scheduled, scheduled[1:])} == {interval}
    assert link.state is LinkState.CONNECTED


def test_role_switch_leaves_exactly_one_supervision_timer():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    link, _ = connect(stack, a, b)
    interval = stack.links.params.keepalive_interval_us
    stack.engine.run_until(stack.engine.now + interval // 2)
    stack.links.role_switch(link)
    assert supervision_timers(stack) == [link._timer]
    stack.engine.run_until(stack.engine.now + interval // 2)
    for _ in range(5):
        stack.engine.run_until(stack.engine.now + interval)
        assert supervision_timers(stack) == [link._timer]
        assert stack.engine.pending_events == 1
    assert link.state is LinkState.CONNECTED and link.master is b


def test_role_switch_refused_when_new_master_is_full():
    stack = make_stack()
    big = add_device(stack, 99)
    for i in range(1, 8):
        slave = add_device(stack, i, position=(1.0, float(i)))
        connect(stack, big, slave)
    other = add_device(stack, 50, position=(0.0, 1.0))
    link, _ = connect(stack, other, big)  # big is slave here
    with pytest.raises(WouldViolateTopology):
        stack.links.role_switch(link)  # big would need an eighth slave


def test_admit_traffic_exact_proportional_split():
    stack = make_stack()
    master = add_device(stack, 1)
    s1 = add_device(stack, 2, position=(1.0, 0.0))
    s2 = add_device(stack, 3, position=(0.0, 1.0))
    stack.links.set_rate_cap(master.address, 1000)
    connect(stack, master, s1)
    connect(stack, master, s2)
    granted = stack.links.admit_traffic(
        master.address, {s1.address: 800, s2.address: 800}
    )
    assert granted == {s1.address: 500, s2.address: 500}


def test_admit_traffic_grants_fully_under_cap():
    stack = make_stack()
    master = add_device(stack, 1)
    s1 = add_device(stack, 2, position=(1.0, 0.0))
    stack.links.set_rate_cap(master.address, 1_000_000)
    connect(stack, master, s1)
    requested = {s1.address: 250_000}
    assert stack.links.admit_traffic(master.address, requested) == requested


@settings(max_examples=50, deadline=None)
@given(
    rates=st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=4),
    cap=st.integers(min_value=1, max_value=10**6),
)
def test_admit_traffic_never_exceeds_cap(rates, cap):
    stack = make_stack()
    master = add_device(stack, 1)
    stack.links.set_rate_cap(master.address, cap)
    slaves = []
    for i, _ in enumerate(rates, start=2):
        slave = add_device(stack, i, position=(1.0, float(i)))
        connect(stack, master, slave)
        slaves.append(slave)
    requested = {s.address: r for s, r in zip(slaves, rates)}
    granted = stack.links.admit_traffic(master.address, requested)
    assert sum(granted.values()) <= cap
    if sum(rates) <= cap:
        assert granted == requested


def test_admit_traffic_requires_slave_membership():
    stack = make_stack()
    master = add_device(stack, 1)
    outsider = add_device(stack, 2, position=(1.0, 0.0))
    s1 = add_device(stack, 3, position=(0.0, 1.0))
    connect(stack, master, s1)
    with pytest.raises(LinkError):
        stack.links.admit_traffic(master.address, {outsider.address: 100})


def test_pairing_happens_at_establishment_when_pins_set():
    stack = make_stack()
    a, b, link = paired_pair(stack)
    assert link.link_key is not None
    ok = [e for e in stack.engine.trace if e.ev == "auth_ok"]
    assert len(ok) == 1
    assert ok[0].detail["key_hash"] == link.link_key.hash8()


def test_unequal_pins_leave_link_unauthenticated_with_auth_fail():
    from hdpsim import Pin

    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    stack.links.set_pin(a.address, Pin.from_text("1234"))
    stack.links.set_pin(b.address, Pin.from_text("9999"))
    link, _ = connect(stack, a, b)
    assert link.link_key is None
    fail = [e for e in stack.engine.trace if e.ev == "auth_fail"]
    assert len(fail) == 1
    assert fail[0].detail["key_hash_local"] != fail[0].detail["key_hash_peer"]


def test_only_new_links_and_role_switches_count_as_topology_changes():
    stack = make_stack()
    a, b, link = paired_pair(stack)
    assert stack.links.topology_changes == 1
    stack.links.drop_link(a.address, b.address)
    stack.links.page(a, b.address)
    stack.engine.run_until(stack.engine.now + 2_000_000)
    assert link.state is LinkState.CONNECTED and stack.links.topology_changes == 1
    stack.links.role_switch(link)
    assert stack.links.topology_changes == 2


WARD_4X7 = Path(__file__).parent / "golden" / "ward_lossy_offsets.json"


def logged_run(monkeypatch, corrupt_link: int = 0) -> list[tuple[str, int]]:
    """Run ward 4x7 (``ward_lossy_offsets``, seed 1) and return, in order,
    each action ("action"), each new link ("write") and each topology walk
    ("walk"), with its time. With ``corrupt_link`` n, the n-th new link is
    also filed in ``_links_of`` under an address that is neither of its ends."""
    log: list[tuple[str, int]] = []
    run = ScenarioRun(load_scenario(str(WARD_4X7)), 1)
    engine = run.stack.engine
    establish, violations = LinkManager._establish, LinkManager.topology_violations

    def logged_establish(links, master, slave, params):
        before = len(links.links)
        link = establish(links, master, slave, params)
        if len(links.links) > before:
            log.append(("write", engine.now))
            if len(links.links) == corrupt_link:
                links._links_of.setdefault(DeviceAddress(0xBAD), []).append(link)
        return link

    def logged_walk(links):
        log.append(("walk", engine.now))
        return violations(links)

    def logged(handler):
        def run_action(scenario_run, action):
            try:
                handler(scenario_run, action)
            finally:
                log.append(("action", engine.now))

        return run_action

    monkeypatch.setattr(LinkManager, "_establish", logged_establish)
    monkeypatch.setattr(LinkManager, "topology_violations", logged_walk)
    for name, handler in HANDLERS.items():
        monkeypatch.setitem(HANDLERS, name, logged(handler))
    try:
        run.run()
    except InvariantViolation as breach:
        log.append(("breach", breach.t_us))
    return log


def test_the_topology_is_walked_after_an_action_that_follows_a_write_and_at_the_horizon(
    monkeypatch,
):
    log = logged_run(monkeypatch)
    expected, written = [], False
    for kind, t_us in log:
        if kind == "write":
            written = True
        elif kind == "action":
            expected.append(("action", t_us))
            if written:
                expected.append(("walk", t_us))
            written = False
    expected.append(("walk", 70_000_000))  # the horizon
    assert [entry for entry in log if entry[0] != "write"] == expected
    walks = sum(kind == "walk" for kind, _ in log)
    assert walks == 8 and sum(kind == "action" for kind, _ in log) == 90


def test_a_piconet_broken_by_a_new_link_raises_at_the_next_action(monkeypatch):
    log = logged_run(monkeypatch, corrupt_link=5)
    fifth_write = [i for i, (kind, _) in enumerate(log) if kind == "write"][4]
    next_action = next(t_us for kind, t_us in log[fifth_write:] if kind == "action")
    assert log[-1] == ("breach", next_action) == ("breach", 2_120_000)


def _pair_lookups(monkeypatch, readings):
    """``link_between`` and ``pair_key`` calls in a lossless one-pair run that
    sends ``readings`` readings 100 ms apart; the horizon does not depend on
    the count. Every module's reference to ``pair_key`` is counted."""
    calls = {"link_between": 0, "pair_key": 0}
    link_between, pair_key = LinkManager.link_between, link_module.pair_key

    def counted_link_between(links, a, b):
        calls["link_between"] += 1
        return link_between(links, a, b)

    def counted_pair_key(a, b):
        calls["pair_key"] += 1
        return pair_key(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(LinkManager, "link_between", counted_link_between)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("hdpsim") and getattr(module, "pair_key", None) is pair_key:
                patch.setattr(module, "pair_key", counted_pair_key)
        source, sink = "AA:00:00:00:00:01", "AA:00:00:00:00:02"
        scenario = validate_scenario({
            "devices": [
                {"address": source, "pin": "1234", "role": "source"},
                {"address": sink, "position": [1.0, 0.0], "pin": "1234", "role": "sink"},
            ],
            "timeline": [
                {"t_us": 0, "action": "start_inquiry", "device": sink, "duration_us": 100_000},
                {"t_us": 200_000, "action": "page", "device": sink, "target": source},
                {"t_us": 300_000, "action": "associate", "source": source, "sink": sink,
                 "specialization": "heart_rate"},
                {"t_us": 1_000_000, "action": "send_measurement", "source": source, "sink": sink,
                 "count": readings, "interval_us": 100_000,
                 "readings": {"heart_rate_bpm": 70.0, "filling_duration_ms": 150.0,
                              "ascending_wave_index_pct": 12.0}},
                {"t_us": 6_000_000, "action": "run_until"},
            ],
        })
        _trace, report = ScenarioRun(scenario, 3).run()
    assert report.measurements.delivered == readings
    return calls


def test_no_pair_lookup_is_made_per_reading(monkeypatch):
    few, many = _pair_lookups(monkeypatch, 20), _pair_lookups(monkeypatch, 40)
    assert few == many
    assert few["link_between"] > 0 and few["pair_key"] > 0  # the counters see calls

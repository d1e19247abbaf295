"""The engine's Retry and Op, and the bounded state of the layers built on them."""

from __future__ import annotations

import inspect

import pytest

from hdpsim import hdp
from hdpsim.engine import Engine, Op, Retry
from hdpsim.hdp import _MSG_ASSOC_REQ, AssocState, Specialization
from hdpsim.link import PROTO_HDP, LinkState, Unreachable
from hdpsim.mcap import ChannelState, LinkDown, McapTimeout, SendStatus, SyncTimeout

from conftest import add_device, connect, make_stack, paired_pair, run_while


def queues(channel):
    """Sender -> its queue of unacknowledged payloads."""
    return {device.address: state.queue for device, state in channel.senders.items()}


def retries(channel):
    """Sender -> its Retry, for each whose Retry is resending its queue head."""
    return {
        device.address: state.retx for device, state in channel.senders.items()
        if state.retx is not None and not state.retx.done
    }


def assert_nothing_pending(stack):
    assert stack.links._pages == {}
    controls = [link.control for link in stack.links.links.values() if link.control is not None]
    assert all(control.pending == {} for control in controls)
    # An association's request stops once answered, timed out or released;
    # its re-page once the link is back or the association is released.
    for assoc in stack.hdp.associations.values():
        assert assoc._request.done
        assert assoc._repage is None or assoc._repage.done
    # A retransmit Retry runs only while its channel is active and its
    # sender's queue holds the payload it resends.
    for control in controls:
        for channel in control.channels.values():
            if channel.state is not ChannelState.ACTIVE or not any(queues(channel).values()):
                assert retries(channel) == {}
            for sender in retries(channel):
                assert queues(channel).get(sender)


def control_pair(stack):
    a, b, link = paired_pair(stack)
    return a, b, link, stack.mcap.open_control_channel(a, b)


def open_channel(stack, control, initiator):
    op = stack.mcap.create_data_channel(control, initiator, reliable=True)
    run_while(stack, lambda: not op.done, 1_000_000)
    assert op.error is None
    return op.result


def walk_away(stack, device):
    stack.engine.move_device(device.address, (100.0, 0.0))


# -- Retry and Op -------------------------------------------------------------


def test_retry_resends_every_interval_and_fails_exactly_at_the_deadline():
    engine = Engine()
    sends, timeouts = [], []
    retry = Retry(engine, lambda: sends.append(engine.now), 300, 1000, lambda: timeouts.append(engine.now))
    retry.start()
    engine.run_until(5000)
    assert sends == [0, 300, 600, 900]
    # The last wait is clamped from 1200 to the deadline.
    assert timeouts == [1000]
    assert retry.done and engine.pending_events == 0


def test_resolving_a_retry_cancels_its_pending_tick():
    engine = Engine()
    sends = []
    retry = Retry(engine, lambda: sends.append(engine.now), 100, 1000, lambda: pytest.fail("timed out"))
    retry.start()
    engine.run_until(150)
    assert engine.pending_events == 1
    retry.resolve()
    assert retry.done and engine.pending_events == 0
    engine.run_until(2000)
    assert sends == [0, 100]


def test_a_delayed_start_first_sends_after_the_delay_then_every_interval():
    engine = Engine()
    sends = []
    retry = Retry(engine, lambda: sends.append(engine.now), 300).start(1000)
    assert sends == [] and engine.pending_events == 1
    engine.run_until(2000)
    assert sends == [1000, 1300, 1600, 1900]
    retry.resolve()
    assert engine.pending_events == 0


def test_resolving_a_delayed_retry_before_its_first_tick_sends_nothing():
    engine = Engine()
    sends = []
    retry = Retry(engine, lambda: sends.append(engine.now), 300).start(1000)
    engine.run_until(999)
    retry.resolve()
    assert retry.done and engine.pending_events == 0
    engine.run_until(5000)
    assert sends == []


@pytest.mark.parametrize("timeout_us", [None, 50])
def test_a_send_that_resolves_its_retry_is_its_last(timeout_us):
    engine = Engine()
    sends, timeouts = [], []

    def send():
        sends.append(engine.now)
        retry.resolve()

    retry = Retry(engine, send, 10, timeout_us, lambda: timeouts.append(engine.now))
    retry.start()
    engine.run_until(100)
    assert sends == [0] and timeouts == []
    assert retry.done and engine.pending_events == 0


def test_a_resolved_retry_restarts_with_a_send_at_once_and_one_pending_tick():
    engine = Engine()
    sends = []
    retry = Retry(engine, lambda: sends.append(engine.now), 100).start()
    engine.run_until(150)
    retry.resolve()
    assert retry.done and engine.pending_events == 0
    assert retry.start() is retry
    assert sends == [0, 100, 150] and not retry.done and engine.pending_events == 1
    engine.run_until(400)
    assert sends == [0, 100, 150, 250, 350] and engine.pending_events == 1


def test_a_send_that_restarts_its_own_retry_leaves_one_pending_tick():
    engine = Engine()
    sends = []

    def send():
        sends.append(engine.now)
        if len(sends) == 2:
            retry.resolve()
            retry.start()

    retry = Retry(engine, send, 100).start()
    engine.run_until(100)
    assert sends == [0, 100, 100] and engine.pending_events == 1
    engine.run_until(250)
    assert sends == [0, 100, 100, 200]


@pytest.mark.parametrize("delay_us", [0, 50])
def test_starting_a_live_retry_is_refused(delay_us):
    engine = Engine()
    sends = []
    retry = Retry(engine, lambda: sends.append(engine.now), 100).start(delay_us)
    with pytest.raises(RuntimeError):
        retry.start()
    assert engine.pending_events == 1 and not retry.done
    engine.run_until(delay_us + 150)
    assert sends == [delay_us, delay_us + 100]


def test_op_resolves_once_and_runs_late_callbacks_at_once():
    op = Op()
    seen = []
    op.on_complete(lambda o: seen.append(("early", o.result)))
    op.on_complete(lambda o: seen.append(("early too", o.result)))
    op.resolve(7)
    assert op._callbacks is None  # nothing held once the callbacks ran
    op.resolve(8, error=ValueError("ignored"))
    op.on_complete(lambda o: seen.append(("late", o.result)))
    assert op.done and op.result == 7 and op.error is None
    assert op._callbacks is None
    assert seen == [("early", 7), ("early too", 7), ("late", 7)]


# -- bounded per-object state ---------------------------------------------------


def test_long_run_link_holds_only_its_one_live_supervision_timer():
    stack = make_stack()
    _, _, link = paired_pair(stack)
    for _ in range(120):
        stack.engine.run_until(stack.engine.now + 1_000_000)
        assert link._timer in stack.engine._entries
    assert stack.engine.pending_events <= 1


def test_repeated_associate_release_keeps_link_observers_constant():
    stack = make_stack()
    a, b, link, _ = control_pair(stack)
    counts = []
    for _ in range(4):
        assoc = stack.hdp.associate(a, b, Specialization.HEART_RATE)
        run_while(stack, lambda: assoc.state is AssocState.ASSOCIATING, 1_000_000)
        assert assoc.state is AssocState.OPERATING
        stack.hdp.release(assoc)
        stack.engine.run_until(stack.engine.now + 100_000)
        counts.append(len(link._observers))
    assert counts == [counts[0]] * 4
    assert_nothing_pending(stack)


# -- reliable retransmission runs on one Retry per sender -------------------------


def lose_acks(monkeypatch, stack):
    """Drop every data ack on arrival; data frames still reach the peer."""
    monkeypatch.setattr(stack.mcap, "_on_data_ack", lambda *args: None)


def sends_of(stack, seq=1):
    return [
        (e.t_us, e.detail["retx"])
        for e in stack.engine.trace
        if e.ev == "mdl_send" and e.detail["seq"] == seq
    ]


def test_unacknowledged_head_is_resent_every_retransmit_interval(monkeypatch):
    stack = make_stack()
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    lose_acks(monkeypatch, stack)
    t = stack.engine.now
    op = stack.mcap.send(channel, a, b"head")
    stack.engine.run_until(t + 250_000)
    assert sends_of(stack) == [(t, 0), (t + 100_000, 1), (t + 200_000, 2)]
    assert not op.done and list(retries(channel)) == [a.address]
    assert_nothing_pending(stack)


def test_suspended_channel_resends_nothing_until_reconnect(monkeypatch):
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    lose_acks(monkeypatch, stack)
    t = stack.engine.now
    op = stack.mcap.send(channel, a, b"head")
    stack.engine.run_until(t + 150_000)
    stack.links.drop_link(a.address, b.address)
    assert channel.state is ChannelState.SUSPENDED and retries(channel) == {}
    assert_nothing_pending(stack)
    stack.engine.run_until(t + 2_000_000)
    assert sends_of(stack) == [(t, 0), (t + 100_000, 1)]
    monkeypatch.undo()
    connect(stack, a, b)
    reconnect = stack.mcap.reconnect_data_channel(channel, a)
    run_while(stack, lambda: not op.done, 1_000_000)
    assert reconnect.result is channel
    sends = sends_of(stack)
    assert [retx for _, retx in sends] == [0, 1, 2] and sends[2][0] > t + 2_000_000
    assert op.result is SendStatus.DELIVERED
    assert_nothing_pending(stack)


def test_ack_landing_after_the_suspend_is_ignored():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    received = []
    channel.on_receive(lambda ch, frm, payload, now: received.append(payload))
    t = stack.engine.now
    op = stack.mcap.send(channel, a, b"head")
    # The payload lands at t+1 us and its ack at t+2 us, after the link drops.
    stack.engine.run_until(t + 1)
    assert received == [b"head"]
    stack.links.drop_link(a.address, b.address)
    stack.engine.run_until(t + 500_000)
    assert not op.done and channel.pending_count(a) == 1
    assert not [e for e in stack.engine.trace if e.ev == "mdl_ack"]
    assert_nothing_pending(stack)
    connect(stack, a, b)
    stack.mcap.reconnect_data_channel(channel, a)
    run_while(stack, lambda: not op.done, 1_000_000)
    # The resend is a duplicate to the peer, which acks it without a second rx.
    assert op.result is SendStatus.DELIVERED and received == [b"head"]
    assert [retx for _, retx in sends_of(stack)] == [0, 1]
    assert_nothing_pending(stack)


def test_a_payload_landing_after_the_link_is_lost_is_taken_but_not_acked():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    received = []
    channel.on_receive(lambda ch, frm, payload, now: received.append(payload))
    t = stack.engine.now
    op = stack.mcap.send(channel, a, b"head")
    # The link drops at t, before the payload lands at t+1 us: the peer takes
    # it, and the ack it would send finds no link.
    stack.links.drop_link(a.address, b.address)
    stack.engine.run_until(t + 500_000)
    assert received == [b"head"] and channel.senders[a].rx_last == 1
    assert [e.ev for e in stack.engine.trace if e.t_us == t + 1] == ["mdl_rx"]
    assert not op.done and channel.pending_count(a) == 1
    connect(stack, a, b)
    stack.mcap.reconnect_data_channel(channel, a)
    run_while(stack, lambda: not op.done, 1_000_000)
    # The resend is a duplicate to the peer, which acks it without a second rx.
    assert op.result is SendStatus.DELIVERED and received == [b"head"]
    assert [retx for _, retx in sends_of(stack)] == [0, 1]
    assert_nothing_pending(stack)


def test_a_reliable_sender_keeps_one_retry_across_payloads_a_suspend_and_a_reconnect(monkeypatch):
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    held = []
    for payload in (b"one", b"two", b"three"):
        op = stack.mcap.send(channel, a, payload)
        held.append(channel.senders[a].retx)
        run_while(stack, lambda: not op.done, 1_000_000)
        assert op.result is SendStatus.DELIVERED
    retry = held[0]
    assert all(r is retry for r in held) and retry.done
    lose_acks(monkeypatch, stack)
    op = stack.mcap.send(channel, a, b"four")
    stack.engine.run_until(stack.engine.now + 150_000)
    assert not retry.done
    stack.links.drop_link(a.address, b.address)
    assert retry.done and retries(channel) == {}
    monkeypatch.undo()
    connect(stack, a, b)
    stack.mcap.reconnect_data_channel(channel, a)
    run_while(stack, lambda: not op.done, 1_000_000)
    assert op.result is SendStatus.DELIVERED
    assert channel.senders[a].retx is retry and retry.done
    assert_nothing_pending(stack)


def test_a_payload_sent_as_its_link_drops_waits_for_the_reconnect():
    """An observer that runs before mcap's sees the link lost and the channel
    still active: the payload's first try finds the link down and carries
    nothing, and the suspend then halts its retry."""
    stack = make_stack()
    a, b, link = paired_pair(stack)
    ops = []

    def send_on_loss(lk):
        if lk.state is LinkState.LOST:
            assert channel.state is ChannelState.ACTIVE
            ops.append(stack.mcap.send(channel, a, b"late"))

    link.on_state_change(send_on_loss)
    control = stack.mcap.open_control_channel(a, b)
    channel = open_channel(stack, control, a)
    stack.links.drop_link(a.address, b.address)
    (op,) = ops
    assert not op.done and channel.state is ChannelState.SUSPENDED and retries(channel) == {}
    assert sends_of(stack) == []
    connect(stack, a, b)
    stack.mcap.reconnect_data_channel(channel, a)
    run_while(stack, lambda: not op.done, 1_000_000)
    assert op.result is SendStatus.DELIVERED
    # The try that carried nothing counts as an attempt.
    assert [retx for _, retx in sends_of(stack)] == [1]
    assert_nothing_pending(stack)


def test_a_reading_has_one_op_from_submit_to_the_channel_queue():
    stack = make_stack()
    a, b, _, _ = control_pair(stack)
    assoc = stack.hdp.associate(a, b, Specialization.HEART_RATE)
    run_while(stack, lambda: assoc.state is AssocState.ASSOCIATING, 1_000_000)
    op = stack.hdp.send_measurement(
        assoc, {"heart_rate_bpm": 61, "filling_duration_ms": 300, "ascending_wave_index_pct": 40}
    )
    (item,) = queues(assoc.reliable_mdl)[a.address]
    assert item.op is op and op._callbacks is None
    stack.engine.run_until(stack.engine.now + 20_000)
    assert op.result is SendStatus.DELIVERED
    assert_nothing_pending(stack)


# -- every timeout path leaves nothing behind -----------------------------------


def test_page_timeout_leaves_no_page_state():
    stack = make_stack(page_timeout_us=50_000)
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    stack.discovery.note_known(a.address, b.address)
    op = stack.links.page(a, b.address)
    walk_away(stack, b)
    stack.engine.run_until(100_000)
    assert isinstance(op.error, Unreachable) and op.result is None
    assert_nothing_pending(stack)


def test_create_timeout_leaves_no_exchange_state():
    stack = make_stack(handshake_timeout_us=300_000)
    a, b, _, control = control_pair(stack)
    op = stack.mcap.create_data_channel(control, a, reliable=True)
    walk_away(stack, b)
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert isinstance(op.error, McapTimeout)
    assert_nothing_pending(stack)


def test_reconnect_timeout_leaves_no_exchange_state():
    stack = make_stack(handshake_timeout_us=300_000)
    a, b, link, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    stack.links.drop_link(a.address, b.address)
    page = stack.links.page(a, b.address)
    run_while(stack, lambda: not page.done, 1_000_000)
    assert page.result is link
    op = stack.mcap.reconnect_data_channel(channel, a)
    walk_away(stack, b)
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert isinstance(op.error, McapTimeout)
    assert_nothing_pending(stack)


def test_repeated_reconnect_joins_the_pending_exchange():
    stack = make_stack(handshake_timeout_us=300_000)
    a, b, link, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    stack.links.drop_link(a.address, b.address)
    page = stack.links.page(a, b.address)
    run_while(stack, lambda: not page.done, 1_000_000)
    first = stack.mcap.reconnect_data_channel(channel, a)
    assert stack.mcap.reconnect_data_channel(channel, a) is first
    walk_away(stack, b)
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert isinstance(first.error, McapTimeout)
    assert_nothing_pending(stack)


def test_repeated_close_joins_the_pending_exchange():
    stack = make_stack(handshake_timeout_us=300_000)
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    first = stack.mcap.close_channel(channel, a)
    assert stack.mcap.close_channel(channel, a) is first
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert first.error is None and first.result is channel
    assert_nothing_pending(stack)


def test_delete_timeout_leaves_no_exchange_state():
    stack = make_stack(handshake_timeout_us=300_000)
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    op = stack.mcap.close_channel(channel, a)
    walk_away(stack, b)
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert isinstance(op.error, McapTimeout)
    assert_nothing_pending(stack)


def test_sync_timeout_leaves_no_exchange_state():
    stack = make_stack(sync_timeout_us=100_000)
    a, b, _, control = control_pair(stack)
    op = stack.mcap.sync_clocks(control, a)
    walk_away(stack, b)
    stack.engine.run_until(stack.engine.now + 500_000)
    assert isinstance(op.error, SyncTimeout)
    assert_nothing_pending(stack)


def test_association_request_timeout_leaves_no_request_state():
    stack = make_stack(handshake_timeout_us=300_000)
    a, b, _, _ = control_pair(stack)
    assoc = stack.hdp.associate(a, b, Specialization.HEART_RATE)
    link = stack.links.link_between(a.address, b.address)
    observers = len(link._observers)
    walk_away(stack, b)
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert_nothing_pending(stack)
    assert assoc.state is AssocState.RELEASED
    assert len(link._observers) == observers - 1
    failed = [e for e in stack.engine.trace if e.ev == "assoc_failed"]
    assert [(e.dev, e.detail) for e in failed] == [
        (str(a.address), {"assoc_id": assoc.assoc_id, "reason": "timeout"})
    ]


def test_association_released_before_its_request_times_out_stays_quiet():
    stack = make_stack(handshake_timeout_us=300_000)
    a, b, _, _ = control_pair(stack)
    walk_away(stack, b)
    assoc = stack.hdp.associate(a, b, Specialization.HEART_RATE)
    stack.hdp.release(assoc)
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert_nothing_pending(stack)
    assert assoc.state is AssocState.RELEASED
    assert not [e for e in stack.engine.trace if e.ev == "assoc_failed"]


def test_release_stops_the_association_request(monkeypatch):
    # Answers take 400 ms to come back, so the request is still unanswered
    # when the association is released 10 us after it starts.
    stack = make_stack(propagation_us=200_000)
    a, b, _, _ = control_pair(stack)
    requests = []
    send_on_link = stack.links.send_on_link

    def record(link, sender, proto, body):
        if proto == PROTO_HDP and body[0] == _MSG_ASSOC_REQ:
            requests.append((stack.engine.now, str(sender.address)))
        return send_on_link(link, sender, proto, body)

    monkeypatch.setattr(stack.links, "send_on_link", record)
    t = stack.engine.now
    assoc = stack.hdp.associate(a, b, Specialization.HEART_RATE)
    stack.engine.run_until(t + 10)
    stack.hdp.release(assoc)
    stack.engine.run_until(t + 6_000_000)
    assert requests == [(t, str(a.address))]
    assert_nothing_pending(stack)
    assert not [e for e in stack.engine.trace if e.ev in ("assoc", "assoc_failed")]


def test_hdp_defers_only_its_set_up_step_outside_retry():
    """Every hdp resend is a Retry held on its association; the one deferred
    call left takes a failed set-up step again, once its Op has failed."""
    source = inspect.getsource(hdp)
    assert source.count("schedule_in(") == 1
    assert "schedule_in(" in inspect.getsource(hdp.HdpManager._set_up_done)


def hdp_events(stack):
    """The times of queued events whose callback the profile layer scheduled."""
    return [key >> 64 for key, fn in stack.engine._entries.items() if fn.__module__ == "hdpsim.hdp"]


def test_release_cancels_the_retry_of_a_failed_set_up_step(monkeypatch):
    stack = make_stack()
    a, b, _, _ = control_pair(stack)
    create = stack.mcap.create_data_channel
    failed_at = []

    def fail_once(control, initiator, reliable):
        if not failed_at:
            failed_at.append(stack.engine.now)
            raise LinkDown("injected")
        return create(control, initiator, reliable)

    monkeypatch.setattr(stack.mcap, "create_data_channel", fail_once)
    assoc = stack.hdp.associate(a, b, Specialization.HEART_RATE)
    run_while(stack, lambda: not failed_at, 1_000_000, step_us=1_000)
    assert hdp_events(stack) == [failed_at[0] + stack.params.reconnect_retry_interval_us]
    stack.hdp.release(assoc)
    assert hdp_events(stack) == []
    stack.engine.run_until(stack.engine.now + 3 * stack.params.reconnect_retry_interval_us)
    assert len(failed_at) == 1
    assert_nothing_pending(stack)


def test_rejected_association_is_released_once_and_removes_its_observer():
    stack = make_stack()
    a, b, link, _ = control_pair(stack)
    observers = len(link._observers)
    assoc = stack.hdp.associate(a, b, Specialization.HEART_RATE)
    stack.hdp.set_sink_whitelist(b.address, {Specialization.THERMOMETER})
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert_nothing_pending(stack)
    assert assoc.state is AssocState.RELEASED
    assert len(link._observers) == observers
    failed = [e for e in stack.engine.trace if e.ev == "assoc_failed"]
    assert [(e.dev, e.detail) for e in failed] == [
        (str(a.address), {"assoc_id": assoc.assoc_id, "reason": "rejected"})
    ]
    assert stack.hdp.associations[assoc.assoc_id] is assoc


# -- mcap lets real bugs through --------------------------------------------------


def test_mcap_propagates_errors_other_than_link_errors(monkeypatch):
    stack = make_stack()
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)

    def broken(*args):
        raise RuntimeError("bug inside send_on_link")

    monkeypatch.setattr(stack.links, "send_on_link", broken)
    with pytest.raises(RuntimeError):
        stack.mcap.create_data_channel(control, a, reliable=True)
    with pytest.raises(RuntimeError):
        stack.mcap.send(channel, a, b"reading")

from __future__ import annotations

import pytest

from hdpsim.engine import Op
from hdpsim.link import PROTO_MCAP, LinkError
from hdpsim.mcap import (
    ChannelClosed,
    ChannelState,
    ClockSyncResult,
    LinkDown,
    McapError,
    McapTimeout,
    SendStatus,
    SyncTimeout,
)
from hdpsim.security import NotAuthenticated

from conftest import add_device, connect, make_stack, paired_pair, run_while


def control_pair(stack, **kwargs):
    a, b, link = paired_pair(stack, **kwargs)
    control = stack.mcap.open_control_channel(a, b)
    return a, b, link, control


def open_channel(stack, control, initiator, reliable=True):
    op = stack.mcap.create_data_channel(control, initiator, reliable=reliable)
    run_while(stack, lambda: not op.done, 10_000_000)
    assert op.done and op.error is None, op.error
    return op.result


def mcap_tx_count(stack, since=0):
    return sum(1 for e in stack.engine.trace.events[since:] if e.ev == "mcap_tx")


def test_control_channel_requires_authenticated_link():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    connect(stack, a, b)  # no PINs: link up but unauthenticated
    with pytest.raises(NotAuthenticated):
        stack.mcap.open_control_channel(a, b)


def test_control_channel_requires_live_link():
    stack = make_stack()
    a = add_device(stack, 1)
    b = add_device(stack, 2, position=(1.0, 0.0))
    with pytest.raises(LinkDown):
        stack.mcap.open_control_channel(a, b)


def test_control_channel_is_one_per_pair():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    assert stack.mcap.open_control_channel(a, b) is control
    assert stack.mcap.open_control_channel(b, a) is control
    opened = [e for e in stack.engine.trace if e.ev == "control_open"]
    assert len(opened) == 1


def test_create_channel_takes_four_control_messages():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    mark = len(stack.engine.trace.events)
    channel = open_channel(stack, control, a)
    assert channel.mdl_id == 1 and channel.reliable
    assert channel.state is ChannelState.ACTIVE
    assert mcap_tx_count(stack, mark) == 4
    created = [e for e in stack.engine.trace if e.ev == "mdl_create"]
    assert created[0].detail == {
        "mdl_id": 1,
        "peer": str(b.address),
        "reliable": True,
    }


def test_mdl_ids_are_never_reused():
    stack = make_stack()
    a, _, _, control = control_pair(stack)
    first = open_channel(stack, control, a)
    close = stack.mcap.close_channel(first, a)
    stack.engine.run_until(stack.engine.now + 20_000)
    assert close.done
    second = open_channel(stack, control, a)
    assert second.mdl_id == first.mdl_id + 1


def test_reconnect_takes_two_messages_and_keeps_identity():
    stack = make_stack()
    a, b, link, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    identity = (channel.mdl_id, channel.reliable)
    stack.links.drop_link(a.address, b.address)
    assert channel.state is ChannelState.SUSPENDED
    connect(stack, a, b)  # restore the link
    mark = len(stack.engine.trace.events)
    op = stack.mcap.reconnect_data_channel(channel, a)
    stack.engine.run_until(stack.engine.now + 20_000)
    assert op.done and op.result is channel
    assert channel.state is ChannelState.ACTIVE
    assert (channel.mdl_id, channel.reliable) == identity
    assert mcap_tx_count(stack, mark) == 2


def test_reconnect_of_active_channel_is_a_no_op():
    stack = make_stack()
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    op = stack.mcap.reconnect_data_channel(channel, a)
    assert op.done and op.result is channel


def test_reconnect_of_a_closed_channel_is_refused():
    stack = make_stack()
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    stack.mcap.close_channel(channel, a, abort=True)
    assert channel.state is ChannelState.CLOSED
    with pytest.raises(ChannelClosed):
        stack.mcap.reconnect_data_channel(channel, a)
    assert channel.state is ChannelState.CLOSED


def test_reconnect_on_a_down_link_is_refused_and_leaves_the_channel_suspended():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    stack.links.drop_link(a.address, b.address)
    mark = len(stack.engine.trace.events)
    with pytest.raises(LinkDown):
        stack.mcap.reconnect_data_channel(channel, a)
    assert channel.state is ChannelState.SUSPENDED
    assert control.pending == {} and mcap_tx_count(stack, mark) == 0


def test_reliable_send_delivers_and_acks():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    received = []
    channel.on_receive(lambda ch, frm, payload, now: received.append((frm, payload)))
    op = stack.mcap.send(channel, a, b"hello")
    assert not op.done
    stack.engine.run_until(stack.engine.now + 20_000)
    assert op.result is SendStatus.DELIVERED
    assert received == [(a.address, b"hello")]
    acks = [e for e in stack.engine.trace if e.ev == "mdl_ack"]
    assert len(acks) == 1


@pytest.mark.parametrize("reliable", [True, False])
def test_send_resolves_and_returns_the_op_it_is_given(reliable):
    stack = make_stack()
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a, reliable=reliable)
    mine = Op()
    assert stack.mcap.send(channel, a, b"hello", mine) is mine
    stack.engine.run_until(stack.engine.now + 20_000)
    assert mine.done and mine.result is SendStatus.DELIVERED


def test_reliable_delivery_is_exactly_once_under_loss():
    stack = make_stack(loss=0.3, seed=1234)
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    received = []
    channel.on_receive(lambda ch, frm, payload, now: received.append(payload))
    ops = []
    for i in range(20):
        ops.append(stack.mcap.send(channel, a, b"m%02d" % i))
    # Stop-and-wait with 100 ms retransmit: give it generous drain time.
    stack.engine.run_until(stack.engine.now + 60_000_000)
    assert all(op.result is SendStatus.DELIVERED for op in ops)
    assert received == [b"m%02d" % i for i in range(20)]
    retx = [e for e in stack.engine.trace if e.ev == "mdl_send" and e.detail["retx"]]
    assert retx  # loss actually exercised the retransmit path


def test_streaming_send_drops_on_loss_without_retransmit():
    from hdpsim.engine import MediumModel

    stack = make_stack(seed=3)
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a, reliable=False)
    stack.engine.medium = MediumModel(loss_probability=1.0)  # jam the medium
    op = stack.mcap.send(channel, a, b"sample")
    assert op.done and op.result is SendStatus.DROPPED
    stack.engine.run_until(stack.engine.now + 1_000_000)
    drops = [e for e in stack.engine.trace if e.ev == "mdl_drop"]
    assert drops and drops[0].detail["reason"] == "loss"
    assert channel.pending_count(a.address) == 0


def test_streaming_send_drops_while_link_down():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a, reliable=False)
    stack.links.drop_link(a.address, b.address)
    op = stack.mcap.send(channel, a, b"sample")
    assert op.done and op.result is SendStatus.DROPPED
    drops = [e for e in stack.engine.trace if e.ev == "mdl_drop"]
    assert drops[-1].detail["reason"] == "link_down"


def test_streamed_bytes_of_streaming_and_reliable_channels_equal_the_kept_trace():
    # The goldens never stream a payload, so "reliable":false lines and
    # mdl_drop are covered here: a streamed, fed run writes the kept bytes.
    import io

    from hdpsim.engine import MediumModel
    from hdpsim.metrics import MetricsFold, compute_metrics, metrics_json

    def run(out):
        stack = make_stack(seed=7)
        trace = stack.engine.trace
        fold = MetricsFold()
        trace.out, trace.feed, trace.feed_events = out, fold.feed, MetricsFold.EVENTS
        a, b, _, control = control_pair(stack)
        streaming = open_channel(stack, control, a, reliable=False)
        reliable = open_channel(stack, control, b)
        stack.engine.medium = MediumModel(loss_probability=0.4)
        for i in range(30):
            stack.mcap.send(streaming, a, b"s%d" % i)
            stack.mcap.send(reliable, b, b"r%d" % i)
            stack.engine.run_until(stack.engine.now + 30_000)
        stack.links.drop_link(a.address, b.address)
        stack.mcap.send(streaming, a, b"after the drop")
        return trace, fold.report()

    streamed = io.StringIO()
    _trace, streamed_report = run(streamed)
    kept, kept_report = run(None)
    text = streamed.getvalue()
    assert text == kept.to_jsonl()
    assert metrics_json(streamed_report) == metrics_json(compute_metrics(kept.events))
    assert '"reliable":false' in text and '"reliable":true' in text
    assert '"reason":"loss"' in text and '"reason":"link_down"' in text
    assert '"ev":"mdl_ack"' in text and '"retx":1' in text


def test_reliable_queue_survives_link_loss_and_resumes():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    received = []
    channel.on_receive(lambda ch, frm, payload, now: received.append(payload))
    stack.links.drop_link(a.address, b.address)
    ops = [stack.mcap.send(channel, a, b"x%d" % i) for i in range(3)]
    stack.engine.run_until(stack.engine.now + 500_000)
    assert not any(op.done for op in ops)
    assert received == []
    connect(stack, a, b)
    op = stack.mcap.reconnect_data_channel(channel, a)
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert op.done and all(o.result is SendStatus.DELIVERED for o in ops)
    assert received == [b"x0", b"x1", b"x2"]
    suspended = [e for e in stack.engine.trace if e.ev == "mdl_suspended"]
    reconnected = [e for e in stack.engine.trace if e.ev == "mdl_reconnect"]
    assert len(suspended) == 1 and len(reconnected) == 1
    assert reconnected[0].detail["pending"] == 3


def test_send_on_closed_channel_raises():
    stack = make_stack()
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    stack.mcap.close_channel(channel, a)
    stack.engine.run_until(stack.engine.now + 20_000)
    assert channel.state is ChannelState.CLOSED
    with pytest.raises(ChannelClosed):
        stack.mcap.send(channel, a, b"late")


def test_close_abandons_undelivered_queue():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    stack.links.drop_link(a.address, b.address)
    ops = [stack.mcap.send(channel, a, b"q%d" % i) for i in range(4)]
    stack.mcap.close_channel(channel, a, abort=True)
    assert channel.state is ChannelState.CLOSED
    assert all(op.result is SendStatus.ABANDONED for op in ops)
    closed = [e for e in stack.engine.trace if e.ev == "mdl_close"]
    assert closed[-1].detail["abandoned"] == 4


@pytest.mark.parametrize("abort", [True, False])
def test_close_settles_the_queue_by_the_receivers_watermark(abort):
    # Three payloads queued on a live link; the peer takes the first before
    # the channel closes, so it is delivered and only the other two are
    # abandoned, whichever end's close settles the queue.
    stack = make_stack(propagation_us=1000)
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    mark = len(stack.engine.trace.events)
    ops = [stack.mcap.send(channel, a, b"w%d" % i) for i in range(3)]
    if abort:
        # Abort once the first payload has landed, before its ack does.
        def landed():
            return any(e.ev == "mdl_rx" for e in stack.engine.trace.events[mark:])

        run_while(stack, lambda: not landed(), 100_000, step_us=100)
        assert landed()
        stack.mcap.close_channel(channel, a, abort=True)
    else:
        # The delete request is sent after the first payload, so it lands
        # just after it.
        stack.mcap.close_channel(channel, a)
    stack.engine.run_until(stack.engine.now + 100_000)
    events = stack.engine.trace.events[mark:]
    closes = [
        (e.dev, e.detail["mode"], e.detail["abandoned"]) for e in events if e.ev == "mdl_close"
    ]
    closer = a if abort else b
    assert closes == [(str(closer.address), "abort" if abort else "delete", 2)]
    sent = [e.detail["op"] for e in events if e.ev == "mcap_tx"]
    assert sent == (["abort"] if abort else ["delete_req", "delete_ack"])
    assert [op.result for op in ops] == [
        SendStatus.DELIVERED,
        SendStatus.ABANDONED,
        SendStatus.ABANDONED,
    ]
    assert channel.state is ChannelState.CLOSED


def test_a_sender_off_the_link_is_refused_by_identity():
    stack = make_stack()
    a, b, link, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    third = add_device(stack, 3, position=(0.5, 0.5))
    with pytest.raises(LinkError):
        stack.links.send_on_link(link, third, PROTO_MCAP, b"x")
    with pytest.raises(McapError):
        stack.mcap.send(channel, third, b"x")
    with pytest.raises(LinkError, match=str(third.address)):
        link.peer_of(third)
    assert link.peer_of(a) is b and link.peer_of(b) is a


def test_abandon_pending_honors_delivery_evidence():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    stack.links.drop_link(a.address, b.address)
    ops = [stack.mcap.send(channel, a, b"p%d" % i) for i in range(3)]
    # A sender's channel seqs count from 1 in send order; the peer took seq 1.
    channel.sender(a.address).rx_last = 1
    abandoned = stack.mcap.abandon_pending(channel, a.address)
    assert abandoned == 2
    assert [op.result for op in ops] == [
        SendStatus.DELIVERED,
        SendStatus.ABANDONED,
        SendStatus.ABANDONED,
    ]
    assert channel.pending_count(a.address) == 0


def test_payload_size_capped_by_link_page_size():
    stack = make_stack(page_size_bytes=64)
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    stack.mcap.send(channel, a, b"x" * 64)
    with pytest.raises(McapError):
        stack.mcap.send(channel, a, b"x" * 65)


def test_payloads_are_ciphered_on_authenticated_links():
    # Tap raw frames: with pairing done, link payload bytes must not
    # contain the plaintext; the receiver still gets the original.
    from hdpsim.engine import FrameKind

    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    raw = []
    stack.engine.add_frame_handler(
        FrameKind.LINK_DATA, lambda dev, frame, now: raw.append(frame.payload)
    )
    received = []
    channel.on_receive(lambda ch, frm, payload, now: received.append(payload))
    plaintext = b"very-secret-measurement"
    stack.mcap.send(channel, a, plaintext)
    stack.engine.run_until(stack.engine.now + 20_000)
    assert received == [plaintext]
    assert raw and all(plaintext not in blob for blob in raw)


def test_clock_sync_exact_offset_without_jitter():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    # Re-run sync explicitly from the side with no clock offset.
    op = stack.mcap.sync_clocks(control, a)
    stack.engine.run_until(stack.engine.now + 20_000)
    assert op.done and op.error is None
    result = op.result
    assert isinstance(result, ClockSyncResult)
    assert result.offset_us == 0  # both devices share the sim clock here
    assert result.accuracy_us == 1  # rtt 2 us -> half, rounded up


def test_clock_sync_measures_configured_skew():
    stack = make_stack()
    a = add_device(stack, 1, clock_offset_us=1500)
    b = add_device(stack, 2, position=(1.0, 0.0))
    from hdpsim import Pin

    stack.links.set_pin(a.address, Pin.from_text("1"))
    stack.links.set_pin(b.address, Pin.from_text("1"))
    connect(stack, b, a)
    control = stack.mcap.open_control_channel(b, a)
    op = stack.mcap.sync_clocks(control, b)
    stack.engine.run_until(stack.engine.now + 20_000)
    assert op.result.offset_us == 1500


def test_clock_sync_times_out_when_link_dies_midway():
    stack = make_stack(sync_timeout_us=100_000)
    a, b, _, control = control_pair(stack)
    op = stack.mcap.sync_clocks(control, a)
    stack.links.drop_link(a.address, b.address)
    stack.engine.run_until(stack.engine.now + 500_000)
    assert op.done and isinstance(op.error, SyncTimeout)
    failures = [e for e in stack.engine.trace if e.ev == "sync_fail"]
    assert len(failures) == 1


def test_clock_sync_on_a_down_link_is_refused_and_takes_no_token():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    stack.links.drop_link(a.address, b.address)
    with pytest.raises(LinkDown):
        stack.mcap.sync_clocks(control, a)
    assert control.next_token == 1 and control.pending == {}


# -- frames that land on a closed channel, and repeated closes ---------------


def test_a_reconnect_request_landing_on_a_channel_closed_meanwhile_is_not_answered():
    stack = make_stack()
    a, b, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    stack.links.drop_link(a.address, b.address)
    connect(stack, a, b)  # restore the link
    mark = len(stack.engine.trace.events)
    op = stack.mcap.reconnect_data_channel(channel, a)
    stack.mcap.close_channel(channel, a, abort=True)  # before the request lands
    stack.engine.run_until(stack.engine.now + 6_000_000)
    assert isinstance(op.error, McapTimeout)
    assert channel.state is ChannelState.CLOSED
    events = stack.engine.trace.events[mark:]
    assert "reconnect_accept" not in [e.detail["op"] for e in events if e.ev == "mcap_tx"]
    assert not [e for e in events if e.ev == "mdl_reconnect"]


def test_a_payload_landing_on_a_channel_closed_meanwhile_is_not_received():
    stack = make_stack()
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    received = []
    channel.on_receive(lambda ch, from_addr, payload, now: received.append(payload))
    mark = len(stack.engine.trace.events)
    op = stack.mcap.send(channel, a, b"late")
    stack.mcap.close_channel(channel, a, abort=True)  # before the payload lands
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert op.result is SendStatus.ABANDONED and received == []
    assert [e.ev for e in stack.engine.trace.events[mark:] if e.ev.startswith("mdl_")] == [
        "mdl_send",
        "mdl_close",
    ]


@pytest.mark.parametrize("abort", [True, False])
def test_closing_a_closed_channel_sends_no_frame(abort):
    stack = make_stack()
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    first = stack.mcap.close_channel(channel, a)
    run_while(stack, lambda: not first.done, 1_000_000)
    mark = len(stack.engine.trace.events)
    again = stack.mcap.close_channel(channel, a, abort=abort)
    stack.engine.run_until(stack.engine.now + 1_000_000)
    assert again.done and again.result is channel
    assert stack.engine.trace.events[mark:] == []


def test_a_repeated_delete_request_closes_the_channel_once():
    """With a 1 us resend interval and 1 us propagation, the delete request
    is sent again before the first one's ack lands, and the repeat lands on
    the closed channel."""
    stack = make_stack(retransmit_interval_us=1)
    a, _, _, control = control_pair(stack)
    channel = open_channel(stack, control, a)
    mark = len(stack.engine.trace.events)
    op = stack.mcap.close_channel(channel, a)
    stack.engine.run_until(stack.engine.now + 1_000)
    assert op.done and op.result is channel
    events = stack.engine.trace.events[mark:]
    assert [e.detail["op"] for e in events if e.ev == "mcap_tx"].count("delete_req") == 2
    assert [e.ev for e in events if e.ev == "mdl_close"] == ["mdl_close"]

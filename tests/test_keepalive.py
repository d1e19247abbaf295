"""Elided keepalives against the real frames.

On a jitter-free medium a master tick settles its keepalive exchange without
sending it (see ``hdpsim.link``): under loss only when no event comes before
the ack would land, and otherwise it falls back to the real keepalive. These
tests run each generated case twice, once as is and once with the elision
switched off (``fastpaths.off("keepalive_elision")``), and require the same
trace bytes and the same supervision fields after every tick. Moves, drops,
re-pages, role switches and medium swaps land at offsets of 0, 1, p-1, p,
p+1, 2p and 2p+1 from the real tick times, queued either before the tick (so
they fire first at equal times) or by the tick itself (so they fire after its
keepalive). On the lossy base, some ticks must settle and some fall back.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hdpsim.engine import MediumModel
from hdpsim.link import LinkError, LinkState
from hdpsim.runner import ScenarioRun
from hdpsim.scenario import validate_scenario

import fastpaths

P = 100  # propagation_us of the base medium
K = 1_000_000  # keepalive_interval_us
OFFSETS = (0, 1, P - 1, P, P + 1, 2 * P, 2 * P + 1)
PHONE, SENSOR = "AA:00:00:00:00:10", "AA:00:00:00:00:01"
HOME = {PHONE: (0.0, 0.0), SENSOR: (1.0, 1.0)}
AWAY = {PHONE: (-60.0, 0.0), SENSOR: (60.0, 0.0)}
BASES = {
    "lossless": {"propagation_us": P},
    "lossy": {"propagation_us": P, "loss_probability": 0.05},
    "jitter": {"propagation_us": P, "jitter_us": 3},
}
# Swapped in mid-run: the same, a longer delay, loss, jitter, and a delay
# over half the keepalive interval.
SWAPS = (
    MediumModel(propagation_us=P),
    MediumModel(propagation_us=P + 7),
    MediumModel(propagation_us=P, loss_probability=0.3),
    MediumModel(propagation_us=P, jitter_us=3),
    MediumModel(propagation_us=K // 2),
)
KINDS = ("out", "in", "nudge", "drop", "page", "switch", "medium")


def pair_scenario(medium: dict) -> dict:
    readings = {
        "heart_rate_bpm": 72.0,
        "filling_duration_ms": 180.0,
        "ascending_wave_index_pct": 15.0,
    }
    return {
        "name": "keepalive_pair",
        "devices": [
            {"address": PHONE, "position": list(HOME[PHONE]), "pin": "1234", "role": "sink"},
            {
                "address": SENSOR,
                "position": list(HOME[SENSOR]),
                "pin": "1234",
                "role": "source",
                "clock_offset_us": 700,
            },
        ],
        "medium": medium,
        "timeline": [
            {"t_us": 0, "action": "start_inquiry", "device": PHONE, "duration_us": 2_000_000},
            {"t_us": 2_100_000, "action": "page", "device": PHONE, "target": SENSOR},
            {
                "t_us": 2_500_000,
                "action": "associate",
                "source": SENSOR,
                "sink": PHONE,
                "specialization": "heart_rate",
            },
            {
                "t_us": 3_000_000,
                "action": "send_measurement",
                "source": SENSOR,
                "sink": PHONE,
                "count": 12,
                "interval_us": 500_000,
                "readings": readings,
            },
            {"t_us": 11_000_000, "action": "run_until"},
        ],
    }


def perturb(run: ScenarioRun, kind: str, master_end: bool, swap: int) -> None:
    engine, links = run.stack.engine, run.stack.links
    link = next(iter(links.links.values()), None)
    if kind in ("out", "in", "nudge"):
        if link is None:
            phone, sensor = engine.devices.values()
            device = phone if master_end else sensor
        else:
            device = link.master if master_end else link.slave
        key = str(device.address)
        position = {"out": AWAY[key], "in": HOME[key], "nudge": (0.5, 0.5)}[kind]
        engine.move_device(device.address, position)
    elif kind == "medium":
        engine.medium = SWAPS[swap]
    elif link is None:
        return
    elif kind == "drop" and link.state is LinkState.CONNECTED:
        links.drop_link(link.master.address, link.slave.address)
    elif kind == "page" and link.state is LinkState.LOST:
        try:
            links.page(link.master, link.slave.address)
        except LinkError:
            pass
    elif kind == "switch" and link.state is LinkState.CONNECTED:
        links.role_switch(link)


def run_case(base: str, seed: int, steps: list, elide: bool, fired: dict):
    """Trace bytes and per-tick supervision fields of one run, with the
    elision switched off unless ``elide``; ``fired`` counts the elided
    keepalives by the medium they were elided on, and the elided keepalives
    on a lossy medium that settled or fell back to the real frame."""
    with contextlib.nullcontext() if elide else fastpaths.off("keepalive_elision"):
        run = ScenarioRun(validate_scenario(pair_scenario(BASES[base])), seed)
        engine, links = run.stack.engine, run.stack.links
        supervise, elides = links._supervise, links._elides_keepalive
        settle = links._settle_keepalive
        ticks: list[tuple] = []

        def queue(tick: int, late: bool, at_base: int) -> None:
            for index, offset, step_late, kind, master_end, swap in steps:
                if index == tick and step_late == late:
                    engine.schedule(
                        at_base + offset,
                        lambda k=kind, m=master_end, s=swap: perturb(run, k, m, s),
                    )

        def traced_supervise(link) -> None:
            tick, now = len(ticks), engine.now
            queue(tick + 1, False, now + K)  # before the next tick's own events
            supervise(link)
            ticks.append(
                (
                    now,
                    link.state.value,
                    str(link.master.address),
                    link.ka_pending,
                    link.ka_misses,
                    link.slave_heard,
                    link.slave_misses,
                )
            )
            queue(tick, True, now)  # after this tick's keepalive

        def traced_elides(link) -> bool:
            result = elides(link)
            medium = engine.medium
            kind = "lossy" if medium.loss_probability or medium.jitter_us else "lossless"
            fired[kind] += result
            return result

        def traced_settle(link) -> None:
            lossy = link._ka_elided is not None and engine.medium.loss_probability > 0
            pending = engine.pending_events
            settle(link)
            if lossy:  # a fallback queues the real keepalive
                fired["fell_back" if engine.pending_events > pending else "settled"] += 1

        links._supervise = traced_supervise
        links._elides_keepalive = traced_elides
        links._settle_keepalive = traced_settle
        trace, _report = run.run()
    return trace.to_jsonl(), ticks


step = st.tuples(
    st.integers(min_value=0, max_value=7),
    st.sampled_from(OFFSETS),
    st.booleans(),
    st.sampled_from(KINDS),
    st.booleans(),
    st.integers(min_value=0, max_value=len(SWAPS) - 1),
)


def test_elided_keepalives_match_the_real_frames():
    fired = {"lossless": 0, "lossy": 0, "settled": 0, "fell_back": 0}

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        base=st.sampled_from(sorted(BASES)),
        seed=st.integers(min_value=1, max_value=3),
        steps=st.lists(step, max_size=6),
    )
    # The sensor walks out exactly p after a tick, before the keepalive lands.
    @example(base="lossless", seed=1, steps=[(2, P, False, "out", False, 0)])
    # Roles switch and switch back before the keepalive lands: the slave
    # still hears it, which the next tick's slave check counts.
    @example(
        base="lossless",
        seed=1,
        steps=[(2, 1, True, "switch", False, 0), (2, P - 1, True, "switch", False, 0)],
    )
    # Under loss, the sensor walks out after a tick, queued by the tick: up to
    # 2p after it the walk-out comes before the ack would land, so the tick
    # falls back to the real keepalive; at 2p+1 the exchange settles.
    @example(base="lossy", seed=1, steps=[(2, 1, True, "out", False, 0)])
    @example(base="lossy", seed=1, steps=[(2, P + 1, True, "out", False, 0)])
    @example(base="lossy", seed=1, steps=[(2, 2 * P, True, "out", False, 0)])
    @example(base="lossy", seed=1, steps=[(2, 2 * P + 1, True, "out", False, 0)])
    def check(base, seed, steps):
        real = run_case(base, seed, steps, True, fired)
        assert run_case(base, seed, steps, False, fired) == real

    check()
    assert fired["lossless"] > 0, "the elision never fired"
    assert fired["settled"] > 0, "no lossy keepalive exchange settled"
    assert fired["fell_back"] > 0, "no lossy elided keepalive fell back to the real frame"


@pytest.mark.xfail(
    strict=True,
    reason="_supervise counts a slave miss at a link's first tick, before any keepalive",
)
def test_a_walk_out_before_the_first_tick_is_lost_after_three_missed_intervals():
    connected = 2_100_613
    scenario = pair_scenario(BASES["lossless"])
    timeline = scenario["timeline"]
    walk_out = {"action": "move_device", "device": SENSOR, "position": list(AWAY[SENSOR])}
    # Inquiry and page, the walk-out 87 us after the link connects, the horizon.
    timeline[2:-1] = [dict(walk_out, t_us=connected + 87)]
    trace, _report = ScenarioRun(validate_scenario(scenario), 1).run()
    events = [(e.t_us, e.ev) for e in trace if e.ev in ("connected", "link_lost")]
    # The master ticks at connected + K, 2K, ...: the keepalives of the first
    # three go unanswered, so the fourth gives the link up.
    assert events == [(connected, "connected"), (connected + 4 * K, "link_lost")]

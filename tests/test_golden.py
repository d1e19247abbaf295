"""Golden corpus: pinned sha256 of trace and metrics per (scenario, seed).

Each scenario under ``golden/`` drives a path that a refactor could change
without any other test noticing:

- ``page_walkaway``: a page times out after the target walks out of range;
- ``mcap_timeouts``: a channel create and a channel reconnect time out;
- ``drop_cycles_lossy``: repeated ``drop_link`` cycles at 5 % loss with jitter;
- ``release_in_flight``: releases with a reading unacknowledged and with
  readings buffered behind a lost link;
- ``evictions``: a walk-out longer than a four-reading source buffer;
- ``eighth_slave``: the eighth page of one master fails with PiconetFull;
- ``ward_lossy_offsets``: ward 4x7 at 5 % loss with 3 us jitter, four
  distinct clock offsets shared by many devices, and a sensor moved into
  another phone's range during the inquiry (its own page then times out);
- ``mobile_ranges``: two inquiring phones and sensors of mixed radio range at
  2 % loss; one sensor is out of range only by its own shorter range, one
  walks out of a phone's range before that phone's sweep reaches it and one
  walks into it mid-inquiry, and pages follow;
- ``pin_mismatch``: pairing with unequal PINs fails (``auth_fail``) and leaves
  the link unauthenticated, again after a drop and re-page, while a sensor
  with the right PIN associates and sends enciphered readings;
- ``inquiry_edges``: at 5 % loss with 3 us jitter, an inquiry ends with
  responses still in flight, and the same phone starts a second inquiry 1 us
  after the first deadline, so those responses reach the second one;
- ``inquiry_quiet``: lossless with 2 us propagation, a phone finds two sensors
  in its first cycle, a third walks into range mid-cycle before the slot its
  scan frequency is heard on, a non-discoverable one is made discoverable
  1 us after a slot it hears, and a second inquiry starts 1 us after the
  first deadline with a response still in flight;
- ``inquiry_settled``: at 20 % loss without jitter, one phone runs a 3 s
  inquiry that finds a sensor at once and a ``limited`` one whose window
  closes 1 s in, a non-discoverable sensor made discoverable at 1.5 s and
  one that walks into range at 2 s, so quiet cycles between those changes
  still make their loss draws; a page, an association and three readings
  follow;
- ``keepalive_edges``: lossless with 100 us propagation (p), one pair whose
  sensor walks out p/2, exactly p and p + 1 us after a master keepalive tick
  (the keepalive lands; its ack is lost in the first two cases and delivered
  in the third), then a ``drop_link`` and a re-page 30 and 60 us after a
  tick, and an association that sends five readings;
- ``repage_flaps``: ``drop_cycles_lossy`` without loss, with sensor-1's
  link dropped at 8.0, 9.3 and 10.8 s, each drop within one re-page
  interval of the re-page that restored the link before it.

A deliberate trace change re-pins the digests in one declared change:
``PYTHONPATH=src python tests/test_golden.py > tests/golden/digests.json``.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hdpsim import cli
from hdpsim.discovery import DiscoveryManager
from hdpsim.engine import TYPED_EVENTS
from hdpsim.metrics import MetricsFold, compute_metrics, metrics_json
from hdpsim.runner import ScenarioRun, run_scenario
from hdpsim.scenario import load_scenario, validate_scenario

import fastpaths

GOLDEN = Path(__file__).parent / "golden"
PINS_FILE = GOLDEN / "digests.json"
SEEDS = (1, 2)


def scenario_names() -> list[str]:
    return sorted(p.stem for p in GOLDEN.glob("*.json") if p != PINS_FILE)


def outcome(name: str, seed: int) -> tuple[dict[str, str], int, tuple]:
    """A golden run's digests, how many event ids it issued and its final
    RNG state."""
    run = ScenarioRun(load_scenario(str(GOLDEN / f"{name}.json")), seed)
    trace, report = run.run()
    digests = {
        "trace": hashlib.sha256(trace.to_jsonl().encode("utf-8")).hexdigest(),
        "metrics": hashlib.sha256(metrics_json(report).encode("utf-8")).hexdigest(),
    }
    return digests, run.stack.engine.reserve_ids(0), run.stack.engine.rng.getstate()


@functools.lru_cache(maxsize=None)
def all_on(name: str, seed: int) -> tuple[dict[str, str], int, tuple]:
    """``outcome`` with every fast path on, run once per golden and seed.
    Never call it inside ``fastpaths.off``: a cached result there would stand
    in for the run that the switch must change."""
    return outcome(name, seed)


@functools.lru_cache(maxsize=None)
def kept_trace(name: str, seed: int):
    """A golden's kept trace, run once per golden and seed."""
    return run_scenario(load_scenario(str(GOLDEN / f"{name}.json")), seed)[0]


def written(trace_path: Path, metrics_path: Path) -> dict[str, str]:
    return {
        "trace": hashlib.sha256(trace_path.read_bytes()).hexdigest(),
        "metrics": hashlib.sha256(metrics_path.read_bytes()).hexdigest(),
    }


def pinned() -> dict:
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))


def test_every_scenario_is_pinned_at_every_seed():
    pins = pinned()
    assert sorted(pins) == scenario_names()
    for name, by_seed in pins.items():
        assert sorted(by_seed) == [str(s) for s in SEEDS], name


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("seed", SEEDS)
def test_golden_digests(name, seed):
    assert all_on(name, seed)[0] == pinned()[name][str(seed)]


# Each fast path off alone, then all of them off at once.
SWITCHES = [(name,) for name in fastpaths.FAST_PATHS] + [()]


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("seed", SEEDS)
def test_each_fast_path_off_gives_the_pinned_bytes_and_draws(name, seed):
    """With any one fast path of ``fastpaths.FAST_PATHS`` off, and with all
    of them off, every golden gives its pinned digests and ends in the same
    RNG state. With no run of inquiry cycles settled inline it also issues
    as many event ids; quiet slots and elided keepalives save ids by design.
    The switches are a loop, not a parameter, so that each golden and seed
    keeps one test."""
    fast = all_on(name, seed)
    for switches in SWITCHES:
        with fastpaths.off(*switches):
            plain = outcome(name, seed)
        assert plain[0] == pinned()[name][str(seed)], switches or "all"
        assert plain[2] == fast[2], switches or "all"
        if switches == ("settle",):
            assert plain == fast


@pytest.mark.parametrize("name", sorted(fastpaths.FAST_PATHS))
def test_each_fast_path_switch_patches_a_method_that_exists(name):
    """A switch whose method was renamed or removed would turn nothing off."""
    owner, method, stand_in = fastpaths.FAST_PATHS[name]
    fast = vars(owner).get(method)
    assert callable(fast), f"{owner.__name__}.{method} no longer exists"
    assert list(inspect.signature(stand_in).parameters) == list(inspect.signature(fast).parameters)
    with fastpaths.off(name):
        assert getattr(owner, method) is stand_in
    assert getattr(owner, method) is fast


def test_found_addresses_are_the_registered_objects(monkeypatch):
    """An inquiry keeps the responder's registered ``Device.address`` in
    ``_seen``, its results and the known addresses, so lookups of them match
    by identity."""
    inquiries = []
    start = DiscoveryManager.start_inquiry

    def recorded(self, device, duration_us):
        inquiries.append(start(self, device, duration_us))
        return inquiries[-1]

    monkeypatch.setattr(DiscoveryManager, "start_inquiry", recorded)
    run = ScenarioRun(load_scenario(str(GOLDEN / "inquiry_quiet.json")), 1)
    run.run()
    registered = [d.address for d in run.stack.engine.devices.values()]
    found = [a for inquiry in inquiries for a in inquiry._seen]
    found += [r.address for inquiry in inquiries for r in inquiry.results]
    found += [a for peers in run.stack.discovery._known.values() for a in peers]
    assert [len(inquiry._seen) for inquiry in inquiries] == [4, 4]
    assert all(any(a is r for r in registered) for a in found)


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("seed", SEEDS)
def test_cli_streams_the_golden_bytes(name, seed, tmp_path):
    """``hdpsim simulate`` streams the pinned bytes, which an in-memory run
    keeps as they are, and its online metrics fold, fed only the events in
    ``MetricsFold.EVENTS``, writes the bytes of ``compute_metrics`` over the
    kept trace, which feeds every event."""
    path = str(GOLDEN / f"{name}.json")
    trace_path, metrics_path = tmp_path / "trace.jsonl", tmp_path / "metrics.json"
    argv = ["simulate", "--scenario", path, "--seed", str(seed)]
    assert cli.main(argv + ["--trace", str(trace_path), "--metrics", str(metrics_path)]) == 0
    assert written(trace_path, metrics_path) == pinned()[name][str(seed)]
    trace = kept_trace(name, seed)
    assert trace.to_jsonl().encode("utf-8") == trace_path.read_bytes()
    assert metrics_path.read_text(encoding="utf-8") == metrics_json(compute_metrics(trace.events))


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("seed", SEEDS)
def test_each_association_receives_rising_seqs(name, seed):
    """Per association, the sink's ``measurement_rx`` seqs strictly increase:
    the source buffer flushes in order, ahead of anything newer."""
    seqs = {}
    for e in kept_trace(name, seed):
        if e.ev == "measurement_rx":
            seqs.setdefault(e.detail["assoc_id"], []).append(e.detail["seq"])
    for assoc_id, received in seqs.items():
        assert all(a < b for a, b in zip(received, received[1:])), (assoc_id, received)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_larger_source_buffer_never_evicts_more_or_delivers_less(seed):
    """On the lossless ``evictions`` golden, as ``buffer_capacity`` grows,
    ``evicted`` never rises and ``delivered`` never falls."""
    raw = json.loads((GOLDEN / "evictions.json").read_text(encoding="utf-8"))
    assert raw["medium"] == {}
    counts = []
    for capacity in (1, 2, 4, 8, 16, 1024):
        raw["params"]["buffer_capacity"] = capacity
        report = run_scenario(validate_scenario(raw), seed)[1].measurements
        counts.append((report.evicted, report.delivered))
    evicted, delivered = zip(*counts)
    assert evicted[-1] == 0 and evicted[0] > 0, counts
    assert list(evicted) == sorted(evicted, reverse=True), counts
    assert list(delivered) == sorted(delivered), counts


def test_the_fold_declares_every_event_name_it_branches_on():
    """The names ``MetricsFold.feed`` compares ``ev`` with are ``EVENTS``;
    ``admit``, which no golden emits, is covered here alone."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(MetricsFold.feed)))
    branches = {
        node.comparators[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "ev"
    }
    assert branches == MetricsFold.EVENTS and len(branches) == 16


def test_no_emit_call_names_a_typed_event():
    """A typed event goes through ``Engine.emit_typed``: through ``emit`` it
    would feed the fold its dict, which the fold would unpack into the key
    names."""
    emitted = {
        node.args[0].value
        for path in sorted(Path(cli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "emit"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    assert "mcap_tx" in emitted and not emitted & TYPED_EVENTS.keys()


def test_the_fold_unpacks_each_typed_event_into_its_field_names():
    """``MetricsFold.feed`` unpacks each typed event it reads by position, into
    names that, a leading ``_`` aside, are its ``TYPED_EVENTS`` fields."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(MetricsFold.feed)))
    unpacked = {}
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if isinstance(test, ast.Compare) and getattr(test.left, "id", None) == "ev":
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and isinstance(stmt.targets[0], ast.Tuple)
                    and getattr(stmt.value, "id", None) == "detail"
                ):
                    names = tuple(name.id.lstrip("_") for name in stmt.targets[0].elts)
                    unpacked[test.comparators[0].value] = names
    typed = MetricsFold.EVENTS & TYPED_EVENTS.keys()
    assert len(typed) == 5
    assert unpacked == {ev: tuple(name for name, _kind in TYPED_EVENTS[ev]) for ev in typed}


@functools.lru_cache(maxsize=None)
def digests_under_hash_seed(hash_seed: str) -> dict:
    """The re-pin command's digests of every golden, from one fresh process
    under ``PYTHONHASHSEED=hash_seed``."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_trace_bytes_do_not_depend_on_the_hash_seed(name, hash_seed):
    """A fresh process under either hash seed gives the pinned bytes: no set
    or dict order leaks into a run. One process per hash seed runs them all."""
    assert digests_under_hash_seed(hash_seed)[name] == pinned()[name]


if __name__ == "__main__":
    pins = {name: {str(s): all_on(name, s)[0] for s in SEEDS} for name in scenario_names()}
    print(json.dumps(pins, indent=2, sort_keys=True))

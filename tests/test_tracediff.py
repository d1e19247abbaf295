"""``tools/tracediff.py`` on golden traces: equal traces print nothing, and
two seeds of one golden are named at their first differing line."""

from __future__ import annotations

import hashlib
import importlib.util
from collections import Counter
from pathlib import Path

from hdpsim.runner import run_scenario
from hdpsim.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location("tracediff", ROOT / "tools" / "tracediff.py")
tracediff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracediff)


def write_trace(tmp_path: Path, name: str, seed: int) -> Path:
    path = tmp_path / f"{name}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        run_scenario(load_scenario(str(GOLDEN / f"{name}.json")), seed, out=fh)
    return path


def test_a_golden_diffed_against_itself_prints_nothing(tmp_path, capsys):
    trace = write_trace(tmp_path, "release_in_flight", 1)
    assert tracediff.main([str(trace), str(trace)]) == 0
    assert capsys.readouterr().out == ""


def test_two_seeds_of_a_golden_are_named_at_their_first_divergent_line(tmp_path, capsys):
    a = write_trace(tmp_path, "release_in_flight", 1)
    b = write_trace(tmp_path, "release_in_flight", 2)
    lines_a = a.read_text(encoding="utf-8").splitlines()
    lines_b = b.read_text(encoding="utf-8").splitlines()
    first = next(n for n, (x, y) in enumerate(zip(lines_a, lines_b), 1) if x != y)
    assert first > 1  # the two seeds share an opening, shown as context
    assert tracediff.main([str(a), str(b), "-k", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"first difference at line {first}:"
    assert out[1:5] == [
        f"  {first - 2:>8}  {lines_a[first - 3]}",
        f"  {first - 1:>8}  {lines_a[first - 2]}",
        f"- {first:>8}  {lines_a[first - 1]}",
        f"+ {first:>8}  {lines_b[first - 1]}",
    ]
    kinds = [Counter(tracediff.event_kind(line) for line in lines) for lines in (lines_a, lines_b)]
    moved = sorted(ev for ev in kinds[0] | kinds[1] if kinds[0][ev] != kinds[1][ev])
    assert out[5] == (
        "event counts that differ (A, B, B - A):" if moved else "event counts are equal"
    )
    assert [line.split()[0] for line in out[6:]] == moved


def test_digests_hash_each_event_kind_s_lines_in_order(tmp_path, capsys):
    trace = write_trace(tmp_path, "evictions", 1)
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    assert tracediff.main(["--digests", str(trace)]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()]
    kinds = list(dict.fromkeys(tracediff.event_kind(line) for line in lines))
    assert [row[0] for row in rows] == kinds
    for ev, count, digest in rows:
        own = [line for line in lines if tracediff.event_kind(line) == ev]
        assert int(count) == len(own)
        assert digest == hashlib.sha256("".join(own).encode("utf-8")).hexdigest()

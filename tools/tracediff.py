"""Compare two trace files, or digest one by event kind (standard library only).

    python tools/tracediff.py A B [-k LINES]
    python tools/tracediff.py --digests TRACE

With two traces (JSON lines, as ``hdpsim simulate --trace`` writes them) it
prints nothing and exits 0 when they are equal byte for byte. Otherwise it
prints the first line where they differ, after up to ``k`` (default 3) lines
of context the two share, then each event kind (``ev``) whose count differs,
with its count in A, in B and the delta B - A, and exits 1.

``--digests TRACE`` prints, per event kind in first-seen order, the count of
its lines and the sha256 of those lines in trace order. A re-pin can then
name the event kinds whose lines moved.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from collections import Counter, deque
from typing import Iterator, TextIO


def event_kind(line: str) -> str:
    return json.loads(line)["ev"]


def lines_of(path: str) -> Iterator[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        yield from fh


def diff(a_path: str, b_path: str, context: int, out: TextIO) -> bool:
    """Write the difference of two traces to ``out``; whether they differ."""
    kinds: dict[str, Counter] = {"A": Counter(), "B": Counter()}
    shared: deque[tuple[int, str]] = deque(maxlen=context)
    first = None  # (line number, A's line or None, B's line or None)
    pairs = itertools.zip_longest(lines_of(a_path), lines_of(b_path))
    for number, (a, b) in enumerate(pairs, 1):
        if a is not None:
            kinds["A"][event_kind(a)] += 1
        if b is not None:
            kinds["B"][event_kind(b)] += 1
        if first is None:
            if a == b:
                shared.append((number, a))
            else:
                first = (number, a, b)
    if first is None:
        return False
    number, a, b = first
    out.write(f"first difference at line {number}:\n")
    for n, line in shared:
        out.write(f"  {n:>8}  {line.rstrip()}\n")
    for sign, name, line in (("-", "A", a), ("+", "B", b)):
        text = f"(end of {name})" if line is None else line.rstrip()
        out.write(f"{sign} {number:>8}  {text}\n")
    moved = sorted(ev for ev in kinds["A"] | kinds["B"] if kinds["A"][ev] != kinds["B"][ev])
    out.write("event counts that differ (A, B, B - A):\n" if moved else "event counts are equal\n")
    for ev in moved:
        ca, cb = kinds["A"][ev], kinds["B"][ev]
        out.write(f"  {ev:<24} {ca:>8} {cb:>8} {cb - ca:>+8}\n")
    return True


def digests(path: str, out: TextIO) -> None:
    """Write each event kind's line count and the sha256 of its lines."""
    counts: Counter = Counter()
    hashes = {}
    for line in lines_of(path):
        ev = event_kind(line)
        if ev not in hashes:
            hashes[ev] = hashlib.sha256()
        hashes[ev].update(line.encode("utf-8"))
        counts[ev] += 1
    for ev, h in hashes.items():
        out.write(f"{ev:<24} {counts[ev]:>8}  {h.hexdigest()}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("traces", nargs="*", metavar="TRACE", help="the two traces to compare")
    parser.add_argument("-k", "--context", type=int, default=3, help="shared lines shown before")
    parser.add_argument("--digests", metavar="TRACE", help="digest one trace by event kind")
    args = parser.parse_args(argv)
    if args.digests is not None:
        if args.traces:
            parser.error("--digests takes one trace and no others")
        digests(args.digests, sys.stdout)
        return 0
    if len(args.traces) != 2 or args.context < 0:
        parser.error("give two traces, and a context of 0 lines or more")
    return 1 if diff(args.traces[0], args.traces[1], args.context, sys.stdout) else 0


if __name__ == "__main__":
    sys.exit(main())

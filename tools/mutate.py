"""Guard mutants of ``src/hdpsim``: which early exits does no test check?

A guard is an ``if`` (or ``elif``) whose body is one ``return``, ``raise`` or
``continue``. For each guard, on a temporary copy of the repository, the body
is replaced with ``pass`` and pytest runs with ``-x``; the mutant is killed
when a test fails or the run times out, and survives when every test passes.
A surviving guard is dead code, or a behaviour no test pins.

    python tools/mutate.py [--map FILE]

``--map FILE`` is the per-line test map that ``tools/reach.py --map FILE``
writes on the same tree: a mutant then runs only the tests that reached its
guard's body, and one whose body no test reached survives without a run. A
line reached while tests were collected runs the whole suite. Without a map,
every mutant runs the whole suite. A run longer than ``TIMEOUT_S`` counts
as killed. This is a manual tool, not a CI step: with a map, the 132 guards
took 9 minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hdpsim"
COLLECT = "<collect>"  # tools/reach.py's name for what runs outside any test
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", "_out")
TIMEOUT_S = 120  # seconds per mutant; the whole suite takes about 25


@dataclass(frozen=True)
class Guard:
    module: str
    test: str  # the if (or elif) line, stripped
    test_line: int
    body: ast.stmt  # the one return, raise or continue

    @property
    def label(self) -> str:
        return f"{self.module}:{self.test_line}-{self.body.lineno}"


def guards(path: Path) -> list[Guard]:
    """Every guard in ``path``, in line order."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.If)
            and len(node.body) == 1
            and isinstance(node.body[0], (ast.Return, ast.Raise, ast.Continue))
        ):
            line = node.lineno
            found.append(Guard(path.name, lines[line - 1].strip(), line, node.body[0]))
    return sorted(found, key=lambda g: g.body.lineno)


def mutant(source: str, body: ast.stmt) -> str:
    """``source`` with ``body`` replaced by ``pass``; line numbers stay."""
    lines = source.splitlines(keepends=True)
    first, last = body.lineno - 1, body.end_lineno - 1
    head = lines[first].encode("utf-8")[: body.col_offset].decode("utf-8")
    tail = lines[last].encode("utf-8")[body.end_col_offset :].decode("utf-8")
    blank = ["\n"] * (last - first)  # a body over several lines keeps them
    return "".join(lines[:first] + [head + "pass" + tail] + blank + lines[last + 1 :])


def tests_for(guard: Guard, test_map: dict | None) -> list[str] | None:
    """The node ids to run (None: the whole suite; []: no test reaches it)."""
    if test_map is None:
        return None
    tests, lines = test_map["tests"], test_map["lines"].get(guard.module, {})
    ids = [tests[i] for i in lines.get(str(guard.body.lineno), [])]
    return None if COLLECT in ids else ids


def run(copy: Path, guard: Guard, ids: list[str] | None) -> tuple[str, float]:
    """Run pytest on ``copy`` with ``guard`` mutated; "killed" or "survived"."""
    path = copy / "src" / "hdpsim" / guard.module
    original = path.read_text(encoding="utf-8")
    path.write_text(mutant(original, guard.body), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
            + (ids if ids is not None else ["tests"]),
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
        verdict = "survived" if done.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        verdict = "killed"  # a timeout counts as killed
    finally:
        path.write_text(original, encoding="utf-8")
    return verdict, time.monotonic() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--map", type=Path, help="tools/reach.py's per-line test map")
    args = parser.parse_args(argv)

    test_map = json.loads(args.map.read_text(encoding="utf-8")) if args.map else None
    sites = [g for path in sorted(SRC.glob("*.py")) for g in guards(path)]
    print(f"mutate: {len(sites)} guards")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = shutil.copytree(ROOT, Path(tmp) / "repo", ignore=IGNORE)
        for guard in sites:
            ids = tests_for(guard, test_map)
            if ids == []:
                verdict, note = "survived", "no test reaches it"
            else:
                verdict, took = run(copy, guard, ids)
                note = f"{'all' if ids is None else len(ids)} tests, {took:.1f} s"
            print(f"{verdict:8} {guard.label:18} {guard.test}  ({note})", flush=True)
            if verdict == "survived":
                survivors.append(guard.label)
    print(f"mutate: {len(sites) - len(survivors)} of {len(sites)} killed; survivors: "
          + (", ".join(survivors) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

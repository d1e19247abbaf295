"""Statement reach of ``src/hdpsim`` under the Tier-1 suite, against a pin.

Runs pytest in this process under a ``sys.settrace`` line tracer restricted to
``src/hdpsim``; a module's executable lines are the line numbers of its
compiled code objects (``co_lines``). Each unreached line is keyed by module,
enclosing qualname (the innermost class or function around it, ``<module>``
at the top level) and its stripped source text, with a count of the lines
that share the key, so an edit elsewhere in a module moves no entry.

The keys are compared with the committed pin, ``tests/unreached.json``, whose
entries each say why their lines stay unreached. The run exits 1 when a line
is unreached that the pin does not list, or when a test fails; it prints the
pinned lines that are now reached, which then leave the pin: it only shrinks.

The two ``tracemalloc`` tests of ``tests/test_cli.py`` are left out: the
tracer's own allocations break their memory bounds.

    python tools/reach.py [--map FILE]

``--map FILE`` also writes, for each reached line, the tests that reached it
(``tools/mutate.py --map`` runs only those). Hypothesis runs with seed 0, so
the same tree reaches the same lines on every run. Executable-line sets differ
between Python versions; the pin is taken on Python 3.11.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hdpsim"
PIN = ROOT / "tests" / "unreached.json"
LEFT_OUT = (
    "tests/test_cli.py::test_streamed_run_keeps_no_events_and_peaks_below_half_of_in_memory",
    "tests/test_cli.py::test_streamed_run_peak_memory_does_not_grow_with_readings_sent",
)
COLLECT = "<collect>"  # what runs outside any test: imports and collection


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # A module's first instruction is on line 0.
        lines.update(line for _start, _end, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def scopes(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(first line, last line, qualname) of every class and function."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.end_lineno, name))
                inner = ".<locals>." if not isinstance(child, ast.ClassDef) else "."
                visit(child, name + inner)
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def keys_of(path: Path, lines: set[int]) -> dict[int, tuple[str, str, str]]:
    """Line number -> (module, qualname, stripped text) for ``lines``."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    spans = scopes(ast.parse(text))
    keys = {}
    for line in lines:
        around = [s for s in spans if s[0] <= line <= s[1]]
        qualname = max(around)[2] if around else "<module>"
        keys[line] = (path.name, qualname, source[line - 1].strip())
    return keys


class LineTracer:
    """Records, per test, the ``src/hdpsim`` lines it runs; a pytest plugin."""

    def __init__(self, src: Path):
        self.prefix = str(src) + "/"
        self.hits: set = set()
        self.tests: list[str] = []
        self.masks: dict[tuple[str, int], int] = {}  # (file, line) -> bitmask of tests
        self._run(COLLECT)

    def _run(self, nodeid: str) -> None:
        """Fold the hits so far into the last test's bits; start ``nodeid``'s."""
        if self.tests:
            bit = 1 << (len(self.tests) - 1)
            for hit in self.hits:
                self.masks[hit] = self.masks.get(hit, 0) | bit
        self.tests.append(nodeid)
        self.hits = hits = set()
        prefix = self.prefix

        def local(frame, event, arg):
            if event == "line":
                hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local

        def call(frame, event, arg):
            return local if frame.f_code.co_filename.startswith(prefix) else None

        sys.settrace(call)
        threading.settrace(call)

    def stop(self) -> None:
        self._run(COLLECT)
        sys.settrace(None)
        threading.settrace(None)

    def pytest_runtest_logstart(self, nodeid, location):
        self._run(nodeid)

    def pytest_runtest_logfinish(self, nodeid, location):
        self._run(COLLECT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--map", type=Path, help="write the per-line test map here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC.parent))
    for nodeid in LEFT_OUT:
        print(f"reach: left out {nodeid}")
    tracer = LineTracer(SRC)
    try:
        # A fixed Hypothesis seed: every run draws the same examples, so it
        # reaches the same lines.
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--rootdir", str(ROOT)]
            + [str(ROOT / "tests")]
            + [arg for nodeid in LEFT_OUT for arg in ("--deselect", nodeid)],
            plugins=[tracer],
        )
    finally:
        tracer.stop()
    import hdpsim

    if Path(hdpsim.__file__).resolve().parent != SRC:
        print(f"reach: hdpsim was imported from {hdpsim.__file__}, not {SRC}")
        return 1

    reached: dict[str, set[int]] = {}
    for filename, line in tracer.masks:
        reached.setdefault(filename, set()).add(line)
    unreached: Counter = Counter()
    where: dict[tuple[str, str, str], list[int]] = {}
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        missed = lines - reached.get(str(path), set())
        for line, key in sorted(keys_of(path, missed).items()):
            unreached[key] += 1
            where.setdefault(key, []).append(line)

    pin = json.loads(PIN.read_text(encoding="utf-8"))
    pinned = Counter({(e["module"], e["qualname"], e["text"]): e["count"] for e in pin})
    new, gone = unreached - pinned, pinned - unreached
    print(
        f"reach: {total - sum(unreached.values())} of {total} executable lines reached, "
        f"{sum(unreached.values())} unreached"
    )
    for (module, qualname, text), count in sorted(gone.items()):
        print(f"reach: pinned but now reached, drop it from the pin: "
              f"{module} ({qualname}): {text!r} x{count}")
    for key, count in sorted(new.items()):
        module, qualname, text = key
        at = ", ".join(f"{module}:{n}" for n in where[key])
        print(f"reach: UNREACHED, not pinned: {at} ({qualname}): {text!r} x{count}")

    if args.map is not None:
        # {"tests": [nodeid], "lines": {module: {line: [index into tests]}}}
        tests = sorted(set(tracer.tests))
        index = [tests.index(nodeid) for nodeid in tracer.tests]
        lines: dict[str, dict[str, list[int]]] = {}
        for (filename, line), mask in sorted(tracer.masks.items()):
            ids = {index[i] for i in range(mask.bit_length()) if mask >> i & 1}
            lines.setdefault(Path(filename).name, {})[str(line)] = sorted(ids)
        args.map.write_text(json.dumps({"tests": tests, "lines": lines}), encoding="utf-8")
        print(f"reach: wrote the per-line test map to {args.map}")

    if status != 0:
        print(f"reach: pytest exited {int(status)}")
        return 1
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())

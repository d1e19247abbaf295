"""Line budget of ``src/hdpsim``: each module's ``wc -l`` and its logical
lines are pinned in ``line_budget.json``.

A logical line is a ``tokenize`` NEWLINE token, one statement however many
physical lines it spans, so joining or splitting lines moves ``wc -l`` but
not the logical count. A change that grows a module raises its budget there
and says why in CHANGES.md; a change that shrinks a module lowers it. The
failure message also gives each module's lines that are neither docstring
nor blank, so that trimming docstrings alone shows up as such.
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "hdpsim"
BUDGET_FILE = Path(__file__).parent / "line_budget.json"


def code_lines(text: str) -> int:
    """The lines of ``text`` that are neither blank nor in a docstring."""
    lines = text.splitlines()
    skipped = {n for n, line in enumerate(lines, 1) if not line.strip()}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                skipped.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines) - len(skipped)


def logical_lines(source: bytes) -> int:
    """The statements of ``source``: its ``tokenize`` NEWLINE tokens."""
    tokens = tokenize.tokenize(io.BytesIO(source).readline)
    return sum(token.type == tokenize.NEWLINE for token in tokens)


def test_every_module_has_its_pinned_line_count():
    budget = json.loads(BUDGET_FILE.read_text(encoding="utf-8"))
    modules = {path.name: path for path in sorted(SRC.glob("*.py"))}
    wrong = []
    for name, path in modules.items():
        source = path.read_bytes()
        counts = {"lines": source.count(b"\n"), "logical": logical_lines(source)}
        if budget.get(name) != counts:
            code = code_lines(source.decode("utf-8"))
            wrong.append(
                f"{name}: wc -l {counts['lines']}, logical {counts['logical']}; "
                f"budget {budget.get(name, 'missing')}; {code} lines neither docstring nor blank"
            )
    wrong += [f"{name}: budgeted, but no such module" for name in budget if name not in modules]
    assert not wrong, "\n".join(wrong)

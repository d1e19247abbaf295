"""Line budget of ``src/hdpsim``: each module's ``wc -l`` is pinned in
``line_budget.json``.

A change that grows a module raises its budget there and says why in
CHANGES.md; a change that shrinks a module lowers it. The failure message
also gives each module's lines that are neither docstring nor blank, so that
trimming docstrings alone shows up as such.
"""

from __future__ import annotations

import ast
import json
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


def test_every_module_has_its_pinned_line_count():
    budget = json.loads(BUDGET_FILE.read_text(encoding="utf-8"))
    modules = {path.name: path for path in sorted(SRC.glob("*.py"))}
    wrong = []
    for name, path in modules.items():
        lines = path.read_bytes().count(b"\n")
        if budget.get(name) != lines:
            code = code_lines(path.read_text(encoding="utf-8"))
            wrong.append(
                f"{name}: wc -l {lines}, budget {budget.get(name, 'missing')}; "
                f"{code} lines neither docstring nor blank"
            )
    wrong += [f"{name}: budgeted, but no such module" for name in budget if name not in modules]
    assert not wrong, "\n".join(wrong)

"""No dead definitions: every top-level function in ``src/repro`` is
named somewhere besides its own ``def`` line — in ``src/``, ``tests/``,
``benchmarks/`` or ``examples/``.

A function nothing calls, imports, tests or documents in code is code
nobody can tell is still correct; delete it instead of keeping it
"just in case".  The check is textual (an identifier token anywhere,
strings and docstrings included), so a function reached only through
``getattr`` or a registry keyed by its name still counts as used as
long as the name is spelled out somewhere.  Dunder functions (a
module-level ``__getattr__``, PEP 562) are skipped: the interpreter
calls them by protocol, not by name.  There is no allowlist.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
CORPUS_DIRS = ("src", "tests", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files(root: Path):
    return sorted(
        path for path in root.rglob("*.py") if "__pycache__" not in path.parts
    )


def _corpus_counts() -> Counter:
    counts: Counter = Counter()
    for name in CORPUS_DIRS:
        for path in _python_files(REPO / name):
            counts.update(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return counts


def dead_functions():
    """``(module path, line, name)`` for every top-level function whose
    name occurs nowhere but on its own ``def`` line."""
    counts = _corpus_counts()
    dead = []
    for path in _python_files(PACKAGE):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) or node.name.startswith("__"):
                continue
            on_def_line = IDENTIFIER.findall(lines[node.lineno - 1]).count(
                node.name
            )
            if counts[node.name] <= on_def_line:
                dead.append(
                    (str(path.relative_to(REPO)), node.lineno, node.name)
                )
    return dead


def test_every_top_level_function_is_referenced():
    dead = dead_functions()
    assert not dead, "dead top-level functions (delete them):\n" + "\n".join(
        f"  {module}:{line} {name}" for module, line, name in dead
    )

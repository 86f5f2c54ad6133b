"""Source-level guards on the engine package.

Invariants are `ConsistencyError` raises, not `assert`s, so they hold under
`python -O`; and the engine is exact, so it has no float literal and no
`float(...)` call.
"""
import ast
from pathlib import Path

import hodgerep

PACKAGE = Path(hodgerep.__file__).parent


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float(...) call"


def test_no_assert_or_float_in_engine():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{line}: {what}"
             for path in modules
             for line, what in _violations(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, found


def test_guard_detects_each_violation():
    tree = ast.parse("assert x\ny = 0.5\nz = float(y)\n")
    assert [what for _, what in _violations(tree)] == [
        "assert statement", "float literal 0.5", "float(...) call"]

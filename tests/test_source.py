"""Checks on the source of the package itself."""
import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "neva"


def test_no_assert_guards_a_runtime_invariant():
    # python -O strips assert statements: an invariant the program relies on
    # raises an error of its own instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []

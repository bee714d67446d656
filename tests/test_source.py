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


def test_no_module_imports_dataclasses():
    # neva's records derive from network.Record: dataclass decorators compile their
    # methods with exec at every import, with or without bytecode caches
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if "dataclasses" in ([alias.name for alias in node.names]
                                  if isinstance(node, ast.Import)
                                  else [node.module] if isinstance(node, ast.ImportFrom) else [])]
    assert found == []

"""Checks on the library source itself."""

import ast
from pathlib import Path

import morita


def test_library_has_no_assert_statements():
    # `python -O` strips asserts; internal invariants raise typed MoritaErrors
    src = Path(morita.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []

"""Source-level checks on the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "partition_forge"


def test_no_assert_statements():
    # python -O strips assert, so no invariant of the package may rest on one
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import partition_forge
from partition_forge import series

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "partition_forge"


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


def test_traced_series_names_exist():
    # perfbench/spans.py wraps these names of partition_forge.series by getattr, so the
    # benchmark's --trace 1 breaks if series stops importing one of them; read, not imported
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    names = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "SERIES_IMPORTS_FROM_DIVISORS" for target in node.targets)
    ]
    assert len(names) == 1 and names[0]
    assert [name for name in names[0] if not hasattr(series, name)] == []


def test_exports_resolve_once():
    # every exported name is bound in the package and listed once
    names = partition_forge.__all__
    assert [name for name in names if not hasattr(partition_forge, name)] == []
    assert len(names) == len(set(names))

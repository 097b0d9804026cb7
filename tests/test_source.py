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


def traced_series_names():
    # perfbench/spans.py wraps these names of partition_forge.series by getattr;
    # read from its source, not imported
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    names = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "SERIES_IMPORTS_FROM_DIVISORS" for target in node.targets)
    ]
    assert len(names) == 1 and names[0]
    return names[0]


def test_traced_series_names_exist():
    # the benchmark's --trace 1 breaks if series stops importing one of them
    assert [name for name in traced_series_names() if not hasattr(series, name)] == []


def test_series_imports_from_divisors_only_what_it_uses_or_traces():
    # a name series imports from .divisors and never uses is there only for the
    # tracer, so it must be listed where the tracer reads it
    tree = ast.parse((SRC / "series.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "divisors"
        for alias in node.names
    ]
    assert imported
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in used and name not in traced_series_names()] == []


def test_exports_resolve_once():
    # every exported name is bound in the package and listed once
    names = partition_forge.__all__
    assert [name for name in names if not hasattr(partition_forge, name)] == []
    assert len(names) == len(set(names))

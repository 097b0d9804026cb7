"""Source-level checks on the package itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_exports_bind_under_star_import_and_dir():
    namespace = {}
    exec("from partition_forge import *", namespace)
    assert [name for name in partition_forge.__all__ if name not in namespace] == []
    assert set(partition_forge.__all__) <= set(dir(partition_forge))


def test_readme_records_paragraph_names_exactly_the_exported_tuple_records():
    # the paragraph runs from its lead-in to the first bullet below it
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = text.split("The records are named tuples:", 1)[1].split("\n*", 1)[0]
    named = re.findall(r"`(\w+)`", paragraph)
    exported = [
        name for name in partition_forge.__all__
        if isinstance(value := getattr(partition_forge, name), type) and issubclass(value, tuple)
    ]
    assert len(named) == len(set(named))
    assert sorted(named) == sorted(exported)


def test_no_dataclasses_import():
    # the records are named tuples: importing dataclasses costs every CLI process ~17 ms
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


def cache_name(node: ast.AST) -> str | None:
    """The name a decorator or call uses: lru_cache for lru_cache(...), functools.lru_cache and the like."""
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def unbounded_caches(source: str) -> list[int]:
    """Lines of every lru_cache or cache in source that does not name a finite int maxsize."""
    tree = ast.parse(source)
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    uses += [
        decorator
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for decorator in node.decorator_list
        if not isinstance(decorator, ast.Call)
    ]
    found = []
    for use in uses:
        name = cache_name(use)
        if name not in ("lru_cache", "cache"):
            continue
        sizes = [kw.value for kw in use.keywords if kw.arg == "maxsize"] + use.args[:1] if isinstance(use, ast.Call) else []
        finite = len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int
        if name == "cache" or not finite or sizes[0].value <= 0:
            found.append(use.lineno)
    return sorted(found)


def test_caches_have_a_finite_maxsize():
    # caches have explicit bounds: every memo in the package names its maxsize
    found, cached = [], set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        found += [f"{path.name}:{line}" for line in unbounded_caches(source)]
        cached |= {
            f"{path.name}:{node.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and any(cache_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
        }
    assert found == []
    assert {"asympt.py:_growth_record", "oracle.py:_divisors", "oracle.py:_tuples"} <= cached


def test_growth_record_is_reached_only_through_record():
    # its cache is untyped, so a call that skips _record's exact-int guard would let (True, 0, 0) hit (1, 0, 0)
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "_growth_record":
                scope = parents[node]
                while not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    scope = parents[scope]
                called = isinstance(parents[node], ast.Call) and parents[node].func is node
                uses.append((path.name, getattr(scope, "name", None), called))
    assert uses == [("asympt.py", "_record", True)]


@pytest.mark.parametrize(
    "source, lines",
    [
        ("@lru_cache(maxsize=64)\ndef f(): pass", []),
        ("@functools.lru_cache(256, typed=True)\ndef f(): pass", []),
        ("@lru_cache\ndef f(): pass", [1]),
        ("@lru_cache(maxsize=None)\ndef f(): pass", [1]),
        ("@functools.lru_cache(None)\ndef f(): pass", [1]),
        ("@lru_cache(typed=True)\ndef f(): pass", [1]),
        ("@cache\ndef f(): pass", [1]),
        ("@functools.cache\ndef f(): pass", [1]),
        ("g = lru_cache(maxsize=None)(len)", [1]),
        ("SIZE = 8\n@lru_cache(maxsize=SIZE)\ndef f(): pass", [2]),
    ],
)
def test_unbounded_cache_check_flags_what_it_should(source, lines):
    assert unbounded_caches(source) == lines


def modules_after(code: str) -> set[str]:
    """sys.modules of a fresh interpreter after it runs code, with this tree's src/ first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    probe = code + "\nimport sys\nprint(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    loaded = modules_after("import partition_forge")
    assert sorted(name for name in loaded if name.startswith("partition_forge.")) == []
    # a submodule still loads when reached as an attribute of the package
    loaded = modules_after("import partition_forge\npartition_forge.oracle.cycle_type_sums")
    assert sorted(name for name in loaded if name.startswith("partition_forge.")) == ["partition_forge.divisors", "partition_forge.oracle"]


@pytest.mark.parametrize(
    "argv, absent",
    [
        pytest.param(
            ["table-w", "--log10n-list", "1.5,100"],
            ["partition_forge.series", "partition_forge.oracle", "dataclasses", "fractions"],
            id="table-w",
        ),
        pytest.param(
            ["coeffs", "--triple", "0,1,0", "--form", "P", "--n", "5"],
            ["partition_forge.asympt", "partition_forge.oracle", "dataclasses", "json"],
            id="coeffs",
        ),
        pytest.param(
            ["coeffs", "--triple", "0,1,0", "--form", "P", "--n", "5", "--format", "json"],
            ["partition_forge.asympt", "partition_forge.oracle", "dataclasses", "json"],
            id="coeffs-json",
        ),
        pytest.param(
            ["weighted", "--triple", "0,1,0", "--v", "1/3", "--n", "5"],
            ["partition_forge.asympt", "partition_forge.oracle", "dataclasses", "json"],
            id="weighted",
        ),
    ],
)
def test_verb_loads_only_its_engine(argv, absent):
    loaded = modules_after(
        "import io\nfrom partition_forge import cli\n"
        f"status = cli.run({argv!r}, out=io.StringIO())\n"
        "if status: raise SystemExit(f'exit {status}')"
    )
    assert [name for name in absent if name in loaded] == []

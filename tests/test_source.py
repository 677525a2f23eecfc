"""Static checks over the library's own source files."""
import ast
import importlib
from pathlib import Path

import pytest

import trivalent

MODULES = sorted(Path(trivalent.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(set(imported) - read)


def test_unused_imports_detector():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from typing import Iterator, Mapping\n"
        "from .graphs import Graph, make_graph\n"
        "__all__ = ['make_graph']\n"
        "def f(m: Mapping) -> Graph:\n"
        "    return os.path.join(np.pi)\n"
    )
    assert unused_imports(source) == ["Iterator"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unbounded_caches(source: str) -> list[str]:
    """functools.cache, and every lru_cache whose maxsize is not an int literal
    or a module-level name bound to one, by line."""
    tree = ast.parse(source)
    ints = {
        t.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int
        for t in node.targets
        if isinstance(t, ast.Name)
    }

    def is_lru(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "lru_cache") or (
            isinstance(node, ast.Attribute) and node.attr == "lru_cache"
        )

    def bounded(call: ast.Call) -> bool:
        size = call.args[0] if call.args else next(
            (k.value for k in call.keywords if k.arg == "maxsize"), None
        )
        if isinstance(size, ast.Name):
            return size.id in ints
        return isinstance(size, ast.Constant) and type(size.value) is int

    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "cache") for a in node.names if a.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append((node.lineno, "cache"))
        elif isinstance(node, ast.Call) and is_lru(node.func) and not bounded(node):
            found.append((node.lineno, "lru_cache"))
        elif is_lru(node) and id(node) not in called:  # bare @lru_cache
            found.append((node.lineno, "lru_cache"))
    return [f"{what} at line {line}" for line, what in sorted(found)]


def test_unbounded_caches_detector():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "SIZE = 8\n"
        "HALF = SIZE // 2\n"
        "@lru_cache(maxsize=SIZE)\n"
        "def a(x): return x\n"
        "@functools.lru_cache(16)\n"
        "def b(x): return x\n"
        "@lru_cache\n"
        "def c(x): return x\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def d(x): return x\n"
        "@lru_cache(maxsize=HALF)\n"
        "def e(x): return x\n"
        "@functools.cache\n"
        "def f(x): return x\n"
        "g = lru_cache()(a)\n"
    )
    assert unbounded_caches(source) == [
        "cache at line 2",
        "lru_cache at line 9",
        "lru_cache at line 11",
        "lru_cache at line 13",
        "cache at line 15",
        "lru_cache at line 17",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbounded_caches(path):
    assert unbounded_caches(path.read_text()) == []


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (one leading underscore)
    whose name no other top-level statement of any module reads, as
    module.name.  A read is a name, an attribute or an imported name; a
    definition's reads of itself (recursion) do not count."""
    defined = []
    reads: dict[str, set] = {}  # name -> (module, statement index) reading it
    for module, source in sources.items():
        for k, top in enumerate(ast.parse(source).body):
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and (
                top.name.startswith("_") and not top.name.startswith("__")
            ):
                defined.append((module, k, top.name))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                reads.setdefault(name, set()).add((module, k))
    return sorted(
        f"{module}.{name}"
        for module, k, name in defined
        if not reads.get(name, set()) - {(module, k)}
    )


def test_unreferenced_privates_detector():
    sources = {
        "a": (
            "def _called(): pass\n"
            "def _recursive(n): return _recursive(n - 1) if n else 0\n"
            "class _Unused: pass\n"
            "def _imported(): pass\n"
            "def _attribute(): pass\n"
            "def __getattr__(name): pass\n"
            "def public(): return _called()\n"
        ),
        "b": (
            "from .a import _imported\n"
            "from . import a\n"
            "x = a._attribute\n"
            "def _dead(): pass\n"
        ),
    }
    assert unreferenced_privates(sources) == ["a._Unused", "a._recursive", "b._dead"]


def test_no_unreferenced_privates():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced_privates(sources) == []


def _bench_names(name: str):
    """A constant assigned in perfbench/layers.py, read from its syntax tree."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


def _resolves(dotted: str) -> bool:
    module, attr = dotted.rsplit(".", 1)
    return hasattr(importlib.import_module(module), attr)


def test_bench_expected_spans_resolve():
    spans = {s for names in _bench_names("EXPECTED_SPANS").values() for s in names}
    assert spans
    assert sorted(s for s in spans if not _resolves(f"trivalent.{s}")) == []


def test_bench_lookup_sites_resolve():
    sites = _bench_names("LOOKUP_SITES")
    assert sites
    assert sorted(s for s in sites if not _resolves(s)) == []

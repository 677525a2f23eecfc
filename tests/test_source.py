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

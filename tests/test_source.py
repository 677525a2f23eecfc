"""Static checks over the library's own source files."""
import ast
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

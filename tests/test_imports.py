"""Every module in the package uses each name it imports, and every private
top-level helper is used somewhere in the package."""

import ast
import collections
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "amalgam"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = "from os import path, sep\nimport json\n\nprint(sep)\n"
    assert unused_imports(source) == [(1, "path"), (2, "json")]


def test_attribute_access_and_annotations_count_as_uses():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "from typing import Any\n\n"
        "def f(x: Any):\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == []


def _references(tree) -> list:
    return [
        getattr(node, "id", None) or node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def unreferenced_private_defs(sources: dict) -> list:
    """(module, name) for each private top-level function or class that no
    code in the package reads outside the helper's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = collections.Counter(ref for tree in trees.values() for ref in _references(tree))
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and uses[node.name] == _references(node).count(node.name)
    ]


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_defs(sources) == []


def test_unreferenced_private_helper_is_caught():
    sources = {
        "a.py": "def _left_behind(n):\n    return _left_behind(n - 1)\n\n"
        "class _Used:\n    pass\n",
        "b.py": "from a import _Used\n\nx = _Used()\n",
    }
    assert unreferenced_private_defs(sources) == [("a.py", "_left_behind")]

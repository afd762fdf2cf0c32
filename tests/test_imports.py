"""Every module in the package uses each name it imports."""

import ast
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

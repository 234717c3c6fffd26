"""Checks on the source text of cohlab that a linter would make; the project installs none."""

import ast
import pathlib

import pytest

import cohlab

MODULES = sorted(p for p in pathlib.Path(cohlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports names to re-export them


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}

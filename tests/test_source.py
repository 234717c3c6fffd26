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


def referenced(stmt):
    """Names that ``stmt`` reads, or reads an attribute by, leaving out the name it defines."""
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
    return names - {getattr(stmt, "name", None)}


def test_every_private_helper_is_used_in_the_package():
    # a helper that only tests still call is dead code, so tests/ is not searched
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"))
               for p in pathlib.Path(cohlab.__file__).parent.glob("*.py")}
    helpers = {(name, stmt.name) for name, tree in modules.items() for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and stmt.name.startswith("_") and not stmt.name.endswith("__")}  # not a dunder hook
    used = set().union(*(referenced(stmt) for tree in modules.values() for stmt in tree.body))
    assert sorted(f"{module}: {name}" for module, name in helpers if name not in used) == []

"""Checks on the source text of cohlab and its tests that a linter would make; the project
installs none."""

import ast
import pathlib

import pytest

import cohlab

PACKAGE = pathlib.Path(cohlab.__file__).parent
TESTS = pathlib.Path(__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))  # __init__ too: it resolves its names on first access

# public names that neither the CLI nor the acceptance suite reaches, each kept for its reason
KEPT = {
    "rotated": "the measures in the basis of a unitary u, c_skew(rotated(rho, u))",
    "optimal_incoherent_state": "the paper's closest incoherent state under the skew measure",
    "partition_check": "the paper's polygamy relation over nested multipartite splits",
    "product_basis_coherence": "the paper's symmetric discord objective at given local bases",
    "subsystem_coherence": "the paper's asymmetric discord objective at a given basis of A",
    "random_incoherent_channel": "the per-sample draw that monotonicity_sweep is checked against",
    "completeness_residual": "the reference that validate_channel's completeness is checked against",
}


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
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


def defined(stmt):
    """Names that the module-level ``stmt`` defines: a function, a class or a table."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {node.id for t in targets if t for node in ast.walk(t) if isinstance(node, ast.Name)}


def package_trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def test_every_private_helper_is_used_in_the_package():
    # a helper that only tests still call is dead code, so tests/ is not searched
    modules = package_trees()
    helpers = {(name, stmt.name) for name, tree in modules.items() for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and stmt.name.startswith("_") and not stmt.name.endswith("__")}  # not a dunder hook
    used = set().union(*(referenced(stmt) for tree in modules.values() for stmt in tree.body))
    assert sorted(f"{module}: {name}" for module, name in helpers if name not in used) == []


def test_every_module_level_name_is_read_in_the_package():
    # a constant or table that no other statement of the package reads is dead code, as an unused
    # helper is, so tests/ is not searched
    stmts = [(module, stmt) for module, tree in package_trees().items() for stmt in tree.body]
    reads = [referenced(stmt) for _, stmt in stmts]
    assert sorted(f"{module}: {name}" for i, (module, stmt) in enumerate(stmts)
                  if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                  for name in defined(stmt) if not name.startswith("__")  # dunders are read by Python
                  and not any(name in r for j, r in enumerate(reads) if j != i)) == []


def test_every_public_name_is_reached():
    # from what the CLI and the acceptance suite read, follow the package's definitions; a
    # public function or class that only the other tests call belongs in tests/oracles.py, or
    # in KEPT with its reason
    modules = package_trees()
    definitions = {}
    for tree in modules.values():
        for stmt in tree.body:
            for name in defined(stmt):
                definitions.setdefault(name, []).append(stmt)
    acceptance = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    reached, todo = set(), referenced(modules["cli.py"]) | referenced(acceptance) | set(KEPT)
    while todo:
        name = todo.pop()
        reached.add(name)
        for stmt in definitions.get(name, ()):
            todo |= referenced(stmt) - reached
    assert sorted(f"{module}: {stmt.name}" for module, tree in modules.items() for stmt in tree.body
                  if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                  and not stmt.name.startswith("_") and stmt.name not in reached) == []

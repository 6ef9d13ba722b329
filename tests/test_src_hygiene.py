"""Static hygiene of the package source, read with ``ast``.

Two rules keep dead code from piling up:

* no module but ``__init__.py`` (which re-exports) imports a name it never
  uses;
* every module-level ``_private`` function or class is referenced somewhere
  in the package outside its own definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "absix"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _names_read(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _imported(tree: ast.Module) -> list:
    """(bound name, line) for each import, ``from __future__`` aside."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [((alias.asname or alias.name).split(".")[0], node.lineno)
                      for alias in node.names]
    return bound


@pytest.mark.parametrize("name", [n for n in MODULES if n != "__init__.py"])
def test_no_unused_imports(name):
    tree = MODULES[name]
    used = _names_read(tree)
    unused = [(bound, line) for bound, line in _imported(tree) if bound not in used]
    assert not unused, f"{name}: imported but never used: {unused}"


def _references(tree: ast.AST, skip: ast.AST = None) -> set:
    """Identifiers referenced in ``tree`` outside the subtree ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_private_definitions_are_referenced(name):
    unreferenced = []
    for node in MODULES[name].body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            if not any(node.name in _references(tree, skip=node)
                       for tree in MODULES.values()):
                unreferenced.append(node.name)
    assert not unreferenced, f"{name}: never referenced in the package: {unreferenced}"

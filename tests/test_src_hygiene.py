"""Static hygiene of the package source, read with ``ast``.

Two rules keep dead code from piling up:

* no module but ``__init__.py`` (which re-exports) imports a name it never
  uses;
* every module-level ``_private`` function or class is referenced somewhere
  in the package outside its own definition.

A third keeps tuples cheap: no ``tuple()`` call takes a generator
expression, ``map``, ``zip`` or ``filter``, whose length CPython does not
know in advance (the ``absix.qmat`` docstring gives the cost); build the
tuple from a list instead.

A fourth keeps what a left-out block means in one module: outside
``atlas.py``, no module reads the stored ``restrictions``, ``pairings`` or
``cohomology`` of an atlas or stratum; they call ``restriction_matrix``,
``pairing_at`` or ``pure_at``.

A fifth keeps the matrix storage format a ``qmat`` decision: outside
``qmat.py``, no module imports a ``qmat`` name that starts with ``_`` other
than the unchecked constructor ``_wrap`` and the scalar parsers ``_frac``
and ``_parse_rational``; the stored rows are read through
``Matrix.sparse_rows``.

A sixth keeps the public surface earning its place: every public function
or method is referenced in a module other than ``__init__.py``, or is named
in ``absix.__all__``, or is on ``UNCALLED_PUBLIC`` with the reason it stays.
A function is referenced by any use of its name; a method only by an
attribute of that name (``x.name``), so a local variable cannot hide it,
though a method still shares its callers with its namesakes.

A seventh keeps the engine on what validation checked: no module but
``atlas.py`` names ``restriction_matrix``, so the complexes and the reports
read the restrictions only through ``atlas.restriction_differential``,
whose squares validation computes.
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


def _references(tree: ast.AST, skip: ast.AST = None, attributes_only: bool = False) -> set:
    """Identifiers referenced in ``tree`` outside the subtree ``skip``; with
    ``attributes_only``, only the names read as ``x.name``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Name) and not attributes_only:
            found.add(node.id)
        elif isinstance(node, ast.ImportFrom) and not attributes_only:
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


_LAZY_ITERATORS = ("map", "zip", "filter")


def _lazy_tuple_calls(tree: ast.AST) -> list:
    """Lines of ``tuple(...)`` calls whose one argument is a generator
    expression or a ``map``, ``zip`` or ``filter`` call."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "tuple" and len(node.args) == 1):
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp) or (
                    isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                    and arg.func.id in _LAZY_ITERATORS):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", sorted(MODULES))
def test_tuples_are_built_from_lists(name):
    lazy = _lazy_tuple_calls(MODULES[name])
    assert not lazy, f"{name}: tuple() of a generator, map, zip or filter on lines {lazy}"


def test_lazy_tuple_rule_sees_every_form():
    source = "tuple(x for x in y); tuple(map(f, y)); tuple(zip(y, z)); tuple(filter(f, y))"
    assert len(_lazy_tuple_calls(ast.parse(source))) == 4
    assert not _lazy_tuple_calls(ast.parse("tuple([x for x in y]); tuple(range(3)); tuple(d)"))


_ATLAS_STORAGE = ("restrictions", "pairings", "cohomology")


def _storage_reads(tree: ast.AST) -> list:
    """Lines that read an attribute named like the atlas's stored blocks."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and node.attr in _ATLAS_STORAGE})


@pytest.mark.parametrize("name", [n for n in MODULES if n != "atlas.py"])
def test_only_the_atlas_module_reads_its_stored_blocks(name):
    reads = _storage_reads(MODULES[name])
    assert not reads, (f"{name}: reads atlas storage on lines {reads}; "
                       "call restriction_matrix, pairing_at or pure_at")


def test_storage_rule_sees_reads_but_not_accessors():
    source = "a.restrictions[p]\nst.pairings[0]\nlen(s.cohomology)\na.pairing_at(s, 0)"
    assert _storage_reads(ast.parse(source)) == [1, 2, 3]


def _restriction_reads(tree: ast.AST) -> list:
    """Lines that name ``restriction_matrix``, as an attribute or a name."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if getattr(node, "attr", getattr(node, "id", None)) == "restriction_matrix"})


@pytest.mark.parametrize("name", [n for n in MODULES if n != "atlas.py"])
def test_the_complexes_read_restrictions_only_through_the_validated_differentials(name):
    reads = _restriction_reads(MODULES[name])
    assert not reads, (f"{name}: names restriction_matrix on lines {reads}; "
                       "read atlas.restriction_differential instead")


def test_restriction_rule_sees_calls_and_names():
    source = "a.restriction_matrix(s, t, 0)\nf = restriction_matrix\nrestriction_differential(a, 0, 0)"
    assert _restriction_reads(ast.parse(source)) == [1, 2]


_QMAT_PRIVATE_ALLOWED = ("_wrap", "_frac", "_parse_rational")


def _private_qmat_imports(tree: ast.AST) -> list:
    """(name, line) of each ``_`` name imported from ``qmat`` beyond the
    allowed ones."""
    return [(alias.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[-1] == "qmat"
            for alias in node.names
            if alias.name.startswith("_") and alias.name not in _QMAT_PRIVATE_ALLOWED]


@pytest.mark.parametrize("name", [n for n in MODULES if n != "qmat.py"])
def test_only_qmat_knows_the_matrix_storage(name):
    found = _private_qmat_imports(MODULES[name])
    assert not found, f"{name}: imports qmat internals {found}; use Matrix.sparse_rows or _wrap"


def test_qmat_import_rule_sees_private_names_but_not_the_allowed_ones():
    source = ("from .qmat import Matrix, _sparse, _wrap\n"
              "from absix.qmat import _frac, _from_sparse, _parse_rational\n"
              "from .hodgecore import _pure\n")
    assert _private_qmat_imports(ast.parse(source)) == [("_sparse", 1), ("_from_sparse", 2)]


# Public names that nothing in the package calls, and why each stays.
UNCALLED_PUBLIC = {
    # Called by tests/test_acceptance.py, which is held fixed.
    "absic.AbsicResult.u",
    "absic.AbsicResult.decomposition",
    "atlas.StratumData.top_degree",
    "hodgecore.PureMorphism.full_matrix",
    # Patched by perfbench/tracing.py's TRACED list, which the benchmark
    # fixes; they go when the tracer reads events from the package.
    "hodgecore.PureMorphism.from_full_matrix",
    "qmat.image_basis",
    "qmat.left_inverse",
    "qmat.adjoint_pushforward",
    # Accessors of public records and matrices that tests and README
    # examples use.
    "absic.FactorCheck.holds",
    "atlas.ValidationReport.codes",
    "qmat.Matrix.scale",
    "qmat.Matrix.to_lists",
}


def _exported(init: ast.Module) -> set:
    """The names in the ``__all__`` list of ``init``."""
    return {value for node in init.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id == "__all__"
            for value in ast.literal_eval(node.value)}


def _public_definitions(module: str, tree: ast.Module) -> list:
    """(qualified name, node) of each public module-level function and each
    public method of a module-level class."""
    stem = module.removesuffix(".py")
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.append((f"{stem}.{node.name}", node))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{stem}.{node.name}.{sub.name}", sub) for sub in node.body
                      if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return found


def _uncalled_public(modules: dict) -> set:
    """Qualified names of public definitions that no module but
    ``__init__.py`` references and that ``__all__`` does not name; a method
    (``module.Class.name``) counts as referenced only through an attribute."""
    exported = _exported(modules["__init__.py"])
    callers = [tree for name, tree in modules.items() if name != "__init__.py"]
    return {qualified for module, tree in modules.items()
            for qualified, node in _public_definitions(module, tree)
            if qualified.split(".", 1)[1] not in exported
            and not any(node.name in _references(t, skip=node,
                                                 attributes_only=qualified.count(".") == 2)
                        for t in callers)}


def test_public_definitions_are_called_exported_or_listed():
    uncalled = _uncalled_public(MODULES)
    assert not uncalled - UNCALLED_PUBLIC, (
        f"public but never called in the package: {sorted(uncalled - UNCALLED_PUBLIC)}; "
        "call it, export it in absix.__all__, delete it, or list it with a reason")
    assert not UNCALLED_PUBLIC - uncalled, (
        f"listed as uncalled but now called or gone: {sorted(UNCALLED_PUBLIC - uncalled)}")


def test_public_rule_sees_uncalled_functions_and_methods():
    modules = {
        "__init__.py": ast.parse("from .m import shown\n__all__ = ['shown', 'used']"),
        "m.py": ast.parse("def shown(): pass\ndef hidden(): pass\ndef used(): pass\n"
                          "def _private(): pass\n"
                          "class K:\n    def used(self): pass\n    def lone(self): pass\n"
                          "    def shadowed(self): pass\n"
                          "    def __len__(self): return 0\n"),
        "n.py": ast.parse("from .m import K\nK().used()\nshadowed = 1\nprint(shadowed)"),
    }
    assert _uncalled_public(modules) == {"m.hidden", "m.K.lone", "m.K.shadowed"}

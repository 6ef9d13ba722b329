"""Engine invariants are explicit checks, so they stay on under ``python -O``."""

import ast
import pathlib

import absix


def test_engine_has_no_assert_statement():
    package = pathlib.Path(absix.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

"""Rules over the package source itself."""

import ast
from pathlib import Path

import evimech

PACKAGE = Path(evimech.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements: no guarantee may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert found == []

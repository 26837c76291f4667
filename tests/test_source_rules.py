"""Rules over the package source itself."""

import ast
import sys
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


def test_package_imports_only_the_standard_library():
    # the package stays pure stdlib Python: every import is relative or names
    # a standard-library module
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.extend(
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            )
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert found == []

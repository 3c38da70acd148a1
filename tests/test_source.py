"""Source-level rules for the package."""

import ast
from pathlib import Path

import toricbundle

SRC = Path(toricbundle.__file__).resolve().parent


def test_no_assert_statements():
    """Checks are explicit comparisons that raise typed errors: an assert
    statement would vanish under ``python -O``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"

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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; a name listed in ``__all__``
    counts as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            }
    return [
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    ]


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}: {name}" for name in _unused_imports(tree)]
    assert not found, f"unused imports in the package: {found}"


def _function_imports(tree: ast.Module) -> list[int]:
    """Lines of the import statements inside a function body."""
    return sorted(
        {
            node.lineno
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_no_function_level_imports():
    """Every module imports at its top, so its dependencies show in one
    place and a call does not pay for an import."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _function_imports(tree)]
    assert not found, f"function-level imports in the package: {found}"


def test_function_import_rule_sees_a_nested_import():
    tree = ast.parse(
        "import a\ndef f():\n    import b\n    def g():\n        from c import d\n"
    )
    assert _function_imports(tree) == [3, 5]


def test_unused_import_rule_sees_a_dead_import():
    tree = ast.parse("from a import B, C\nimport d.e\n__all__ = ['C']\nd.f()\n")
    assert _unused_imports(tree) == ["B (line 1)"]

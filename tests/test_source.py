"""Source-level rules for the package."""

import ast
from pathlib import Path

import pytest

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


def _table_reads(tree: ast.Module) -> list[int]:
    """Lines that read a ``.products`` attribute."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "products"
        }
    )


def test_no_table_reads_outside_galg():
    """Only ``galg`` reads an algebra's table: every other reader goes
    through ``product_pairs`` and ``product_keys``, which serve a stored
    table and one computed on first read alike, where the dict itself holds
    only the products read so far."""
    tests = Path(__file__).resolve().parent
    found = []
    for path in sorted(SRC.rglob("*.py")) + sorted(tests.glob("*.py")):
        if path != SRC / "galg.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}" for line in _table_reads(tree)]
    assert not found, f"structure-constant tables read outside galg: {found}"


def test_table_read_rule_sees_a_read():
    tree = ast.parse(
        "def f(a, b):\n    k = product_keys(a.labels)\n"
        "    return a.products == b.algebra.products\n"
    )
    assert _table_reads(tree) == [3]


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


def _unused_imports_in(paths) -> list[str]:
    found = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}: {name}" for name in _unused_imports(tree)]
    return found


def test_no_unused_imports():
    found = _unused_imports_in(SRC.rglob("*.py"))
    assert not found, f"unused imports in the package: {found}"


def test_no_unused_imports_in_tests():
    found = _unused_imports_in(Path(__file__).resolve().parent.glob("*.py"))
    assert not found, f"unused imports in the tests: {found}"


def _is_import_call(node) -> bool:
    """``__import__(...)`` or ``importlib.import_module(...)``."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id == "__import__"
    return (
        isinstance(fn, ast.Attribute)
        and fn.attr == "import_module"
        and isinstance(fn.value, ast.Name)
        and fn.value.id == "importlib"
    )


def _function_imports(tree: ast.Module) -> list[int]:
    """Lines of the import statements and import calls inside a function
    body."""
    return sorted(
        {
            node.lineno
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_import_call(node)
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


def test_function_import_rule_sees_an_import_call():
    tree = ast.parse(
        "import importlib\nm = __import__('a')\ndef f():\n"
        "    return __import__('b').c\ndef g():\n"
        "    return importlib.import_module('d')\n"
    )
    assert _function_imports(tree) == [4, 6]


def test_unused_import_rule_sees_a_dead_import():
    tree = ast.parse("from a import B, C\nimport d.e\n__all__ = ['C']\nd.f()\n")
    assert _unused_imports(tree) == ["B (line 1)"]


def _dead_entry_points(module: str, trees: dict, wrapped) -> list[str]:
    """Public top-level functions and classes of ``module`` that nothing in
    ``trees`` (module name -> parsed source) reads and that no
    ``module.name`` entry of ``wrapped`` names.

    Another module reads a name when it imports it from
    ``toricbundle.<module>`` or takes it as an attribute of ``module``; a
    re-export from ``__init__`` is not a read.  The module itself reads a
    name when it names it anywhere outside the name's own definition."""
    defs = {
        node.name: node
        for node in trees[module].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    read = {name.split(".")[1] for name in wrapped if name.startswith(f"{module}.")}
    for name, node in defs.items():
        own = set(map(id, ast.walk(node)))
        if any(
            isinstance(n, ast.Name) and n.id == name and id(n) not in own
            for n in ast.walk(trees[module])
        ):
            read.add(name)
    for other, tree in trees.items():
        if other in (module, "__init__"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == f"toricbundle.{module}":
                read |= {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == module
            ):
                read.add(node.attr)
    return [name for name in defs if name not in read]


def _wrapped_names() -> tuple[str, ...]:
    """``perfbench.spans.WRAPPED``, read from its source without importing
    the benchmark."""
    path = SRC.parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no WRAPPED in {path}")


MODULES = sorted(path.stem for path in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_entry_points(module):
    """Every public function and class of the package has a reader in the
    package or is a benchmark span, so no second route to an operation
    outlives its last caller."""
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    found = _dead_entry_points(module, trees, _wrapped_names())
    assert not found, f"{module} entry points nothing reads: {found}"


def test_dead_entry_point_rule_sees_an_unread_function():
    trees = {
        "lin": ast.parse(
            "def a(): pass\ndef b(): pass\nclass C: pass\ndef d(): pass\n"
            "def _e(): pass\nclass F:\n    def g(self): pass\n"
        ),
        "user": ast.parse(
            "from toricbundle.lin import a\nfrom toricbundle import lin\n"
            "lin.C()\nb = 1\n"
        ),
    }
    assert _dead_entry_points("lin", trees, ("lin.d", "other.b")) == ["b", "F"]


def test_dead_entry_point_rule_counts_reads_inside_the_module():
    """A name read by another definition of its own module, or at module
    level, is alive; a read inside its own definition is not."""
    trees = {
        "lin": ast.parse(
            "def a(): pass\ndef b(): return a()\ndef c(): return c()\n"
            "class D:\n    def m(self): return D()\nclass E: pass\nTABLE = {'e': E}\n"
        ),
    }
    assert _dead_entry_points("lin", trees, ()) == ["b", "c", "D"]


def test_dead_entry_point_rule_skips_init_reexports():
    """A name that only ``__init__`` imports, by name or as a module
    attribute, has no reader."""
    trees = {
        "lin": ast.parse("def a(): pass\ndef b(): pass\n"),
        "__init__": ast.parse(
            "from toricbundle.lin import a\nfrom toricbundle import lin\nlin.b\n"
        ),
    }
    assert _dead_entry_points("lin", trees, ()) == ["a", "b"]


def _dead_methods(module: str, trees: dict, wrapped) -> list[str]:
    """Public methods of the classes of ``module``, as ``Class.method``,
    that no tree of ``trees`` (module name -> parsed source) reads as an
    attribute outside the method's own definition and that no
    ``module.Class.method`` entry of ``wrapped`` names.  A read is by
    attribute name alone: ``x.m`` keeps every method called m alive."""
    methods = {
        f"{cls.name}.{fn.name}": fn
        for cls in trees[module].body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    }
    read = {name.split(".", 1)[1] for name in wrapped if name.startswith(f"{module}.")}
    for qualname, fn in methods.items():
        own = set(map(id, ast.walk(fn)))
        if any(
            isinstance(n, ast.Attribute) and n.attr == fn.name and id(n) not in own
            for tree in trees.values()
            for n in ast.walk(tree)
        ):
            read.add(qualname)
    return [name for name in methods if name not in read]


def _reader_trees() -> dict:
    """The parsed modules of the package and of the benchmark (not its
    tests), keyed by module name."""
    bench = SRC.parents[1] / "perfbench"
    paths = sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py"))
    return {
        (path.stem if path.parent == SRC else f"perfbench.{path.stem}"): ast.parse(
            path.read_text(), filename=str(path)
        )
        for path in paths
    }


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_methods(module):
    """Every public method of the package is read by the package or the
    benchmark, or is a benchmark span: a method only tests call is a test
    helper."""
    found = _dead_methods(module, _reader_trees(), _wrapped_names())
    assert not found, f"{module} methods nothing reads: {found}"


def test_dead_method_rule_sees_an_unread_method():
    """A method read only inside its own body, or only named by a function
    of the same name, is dead; a read from another method, another module
    or a wrapped span keeps it alive, and private methods are skipped."""
    trees = {
        "lin": ast.parse(
            "class A:\n    def a(self): return self.b()\n    def b(self): pass\n"
            "    def c(self): return self.c()\n    def d(self): pass\n"
            "    def _e(self): pass\n    def f(self): pass\ndef d(): pass\n"
        ),
        "perfbench.run": ast.parse("import lin\nlin.A().f\n"),
    }
    assert _dead_methods("lin", trees, ("lin.A.a",)) == ["A.c", "A.d"]


def _private_attributes(tree: ast.Module, modules) -> list[int]:
    """Lines where a module-level function reads or writes an underscore
    attribute of an object.  Methods may use their own object's; a dunder
    is protocol, not private state; and an attribute of a module alias
    (``import m``, or ``from pkg import m`` for a name m in ``modules``) is
    that module's own name."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            aliases |= {a.asname or a.name for a in node.names if a.name in modules}
    return sorted(
        {
            node.lineno
            for fn in tree.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in aliases)
        }
    )


def test_no_private_attributes_outside_methods():
    """A fact derived from an object is owned by its class: a module-level
    function reads public attributes only, so no module keeps a cache on
    another's objects."""
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = _private_attributes(tree, modules)
        found += [f"{path.name}:{line}" for line in lines]
    assert not found, f"underscore attributes read outside methods: {found}"


def test_private_attribute_rule_sees_a_foreign_slot():
    tree = ast.parse(
        "import m\nfrom pkg import lin, Thing\n"
        "def f(o):\n    o._a = m._b\n    lin._c()\n    return o.__dict__\n"
        "def g(o):\n    def h():\n        return Thing._d\n    return h\n"
        "class C:\n    def k(self, o):\n        return o._e + self._f\n"
    )
    assert _private_attributes(tree, {"lin"}) == [4, 9]

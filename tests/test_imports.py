"""Every name a `pwb` module or a test module imports is used in it
(`__init__.py` re-exports), no function body in `pwb` imports anything, every
private module-level function is referenced, and every function the benchmark
tracer wraps exists."""
import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pwb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside quoted annotations such as -> "Matrix"
    annotations = [n.returns for n in ast.walk(tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    for node in (c for a in annotations if a is not None for c in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            expr = ast.parse(node.value, mode="eval")
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("from .errors import PwbError, SingularMatrixError\n"
              "import os.path\n"
              "def f() -> \"PwbError\":\n    \"\"\"SingularMatrixError\"\"\"\n")
    assert unused_imports(source) == ["SingularMatrixError (line 1)", "os (line 2)"]


def function_body_imports(source: str) -> list[str]:
    """The import statements inside function bodies, as "function (line n)"."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add(f"{fn.name} (line {node.lineno})")
    return sorted(found)


def test_no_function_body_imports():
    # every import is at a module top, where an import cycle would show at once
    found = [f"{p.name}: {where}" for p in sorted(SRC.glob("*.py"))
             for where in function_body_imports(p.read_text())]
    assert found == []


def test_function_body_import_is_found():
    source = ("import os\n"
              "class C:\n    def m(self):\n        from .errors import PwbError\n"
              "def f():\n    def g():\n        import sys\n    return g\n")
    assert function_body_imports(source) == ["f (line 7)", "g (line 7)", "m (line 4)"]


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions named `_x` (not dunders) whose name no other code in
    `sources` reads, as a plain name or an attribute; a call from its own body
    does not count."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    # each name read, with the (module, module-level function) around each read
    readers: dict[str, set] = {}
    for module, tree in trees.items():
        for top in tree.body:
            owner = (module, top.name) if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                for name in (getattr(node, "id", None), getattr(node, "attr", None)):
                    if name is not None:
                        readers.setdefault(name, set()).add(owner)
    return [f"{module}:{fn.name}" for module, tree in trees.items() for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
            and not fn.name.startswith("__")
            and not readers.get(fn.name, set()) - {(module, fn.name)}]


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def test_unreferenced_private_function_is_found():
    sources = {"a.py": "def _used():\n    pass\n\ndef _left(n):\n    return _left(n - 1)\n",
               "b.py": "from .a import _used\nx = _used()\n\ndef __getattr__(name):\n    pass\n"}
    assert unreferenced_private_functions(sources) == ["a.py:_left"]


def tracing_targets() -> dict[str, list[str]]:
    """The "module:qualname" targets of `SPANS` and `COUNTS` in perfbench/tracing.py."""
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in ("SPANS", "COUNTS"):
            table = eval(compile(ast.Expression(node.value), str(TRACING), "eval"), {})
            tables[node.targets[0].id] = [t for targets in table.values() for t in targets]
    return tables


def test_every_tracing_target_resolves():
    # the tracer patches each target where it is defined: the module, or the
    # class's own __dict__ for a method
    tables = tracing_targets()
    assert sorted(tables) == ["COUNTS", "SPANS"]
    missing = []
    for target in tables["SPANS"] + tables["COUNTS"]:
        modname, qual = target.split(":")
        owner = importlib.import_module(modname)
        *path, attr = qual.split(".")
        for name in path:
            owner = getattr(owner, name, None)
        if owner is None or attr not in vars(owner):
            missing.append(target)
    assert missing == []

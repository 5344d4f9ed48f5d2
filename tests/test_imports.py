"""Every name a `pwb` module or a test module imports is used in it
(`__init__.py` re-exports), no function body in `pwb` imports anything, every
private module-level function is referenced, every function, class and method
of `pwb` has a caller in `pwb` or the benchmark (tests do not count), and every
function the benchmark tracer wraps exists."""
import ast
import importlib
import re
from pathlib import Path
from typing import Sequence

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pwb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
PERFBENCH = SRC.parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def read_names(trees: dict[str, ast.Module], callers: Sequence[ast.Module] = ()
               ) -> dict[str, set]:
    """Each name read in `trees` or `callers`, as a plain name or an attribute,
    with the definition around each read: (module, "f"), (module, "C") or
    (module, "C.m"), and None at a module's top level or in `callers`.  A name
    `__init__.py` imports is read (it is an entry point of the package), and so
    is each part of a "pwb.module:qualname" string in `callers` (a tracer target)."""
    readers: dict[str, set] = {}

    def read(name, owner):
        readers.setdefault(name, set()).add(owner)

    def walk(node, owner):
        for sub in ast.walk(node):
            for name in (getattr(sub, "id", None), getattr(sub, "attr", None)):
                if name is not None:
                    read(name, owner)

    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                for node in top.bases + top.keywords + top.decorator_list:
                    walk(node, (module, top.name))
                for node in top.body:
                    method = isinstance(node, ast.FunctionDef)
                    walk(node, (module, f"{top.name}.{node.name}" if method else top.name))
            elif isinstance(top, ast.FunctionDef):
                walk(top, (module, top.name))
            else:
                walk(top, None)
                if module == "__init__.py" and isinstance(top, ast.ImportFrom):
                    for alias in top.names:
                        read(alias.name, None)
    for tree in callers:
        walk(tree, None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                target = re.fullmatch(r"pwb\.\w+:([\w.]+)", node.value)
                for name in target.group(1).split(".") if target else ():
                    read(name, None)
    return readers


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions named `_x` (not dunders) whose name no other code in
    `sources` reads, as a plain name or an attribute; a call from its own body
    does not count."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    readers = read_names(trees)
    return [f"{module}:{fn.name}" for module, tree in trees.items() for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
            and not fn.name.startswith("__")
            and not readers.get(fn.name, set()) - {(module, fn.name)}]


def unreferenced_definitions(sources: dict[str, str], callers: Sequence[str] = ()) -> list[str]:
    """Module-level functions and classes of `sources`, and the methods of those
    classes (not dunders), that nothing live calls, as "module:qualname".

    A name counts as called where it is read as `read_names` finds, outside
    the definition itself (a class's methods are inside the class), and the
    reader is live: a module's top level, `callers`, or a definition not found
    here.  A definition read only by found ones is found too, and so are the
    methods of a found class; the search repeats until nothing more is found.
    Names are matched, not types, so a method shares its callers with every
    method of the same name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    readers = read_names(trees, [ast.parse(source) for source in callers])
    # (module, qualname) -> (name, the definitions inside it, its class or None)
    defs: dict[tuple, tuple] = {}
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                cls = (module, top.name)
                methods = {(module, f"{top.name}.{fn.name}"): fn.name for fn in top.body
                           if isinstance(top, ast.ClassDef) and isinstance(fn, ast.FunctionDef)}
                defs[cls] = (top.name, {cls, *methods}, None)
                defs.update({key: (name, {key}, cls) for key, name in methods.items()})
    defs = {key: d for key, d in defs.items() if not d[0].startswith("__")}
    found: set = set()
    while True:
        new = {key for key, (name, inside, cls) in defs.items() if key not in found
               and (cls in found or not readers.get(name, set()) - found - inside)}
        if not new:
            return [f"{module}:{qual}" for module, qual in defs if (module, qual) in found]
        found |= new


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def test_unreferenced_private_function_is_found():
    sources = {"a.py": "def _used():\n    pass\n\ndef _left(n):\n    return _left(n - 1)\n",
               "b.py": "from .a import _used\nx = _used()\n\ndef __getattr__(name):\n    pass\n"}
    assert unreferenced_private_functions(sources) == ["a.py:_left"]


def test_every_definition_is_called():
    # tests are no callers; the benchmark in perfbench/ is
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert unreferenced_definitions(sources, callers) == []


def test_unreferenced_definition_is_found():
    sources = {
        "__init__.py": "from .a import entry\n",
        "a.py": ("def entry():\n    return Used().run()\n\n"
                 "def dead():\n    return Helper()\n\n"
                 "def traced():\n    pass\n\n"
                 "class Used:\n    def run(self):\n        return self.step()\n\n"
                 "    def step(self):\n        return Used()\n\n"
                 "    def left(self):\n        return self.left()\n\n"
                 "    def __repr__(self):\n        pass\n\n"
                 "class Helper:\n    def run(self):\n        pass\n\n"
                 "    def only_helper(self):\n        pass\n"),
    }
    callers = ["TARGETS = ['pwb.a:traced']\n"]
    # Helper is read only by dead(), so it goes with it, and with it its methods;
    # Helper.run shares its name with Used.run, which entry() calls, but goes
    # with its class
    assert unreferenced_definitions(sources, callers) == [
        "a.py:dead", "a.py:Used.left", "a.py:Helper", "a.py:Helper.run",
        "a.py:Helper.only_helper"]
    assert "a.py:traced" in unreferenced_definitions(sources)


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

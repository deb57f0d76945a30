"""Every name that a module of the package or of the tests imports at its
top level is read by that module, every name that a module of the package,
of the benchmark or of the scripts imports from the package exists there,
and no test module imports another."""

import ast
import importlib
import pathlib

import glueforge

TESTS = pathlib.Path(__file__).parent
SRC = pathlib.Path(glueforge.__file__).parent


def _top_level_imports(body: list[ast.stmt]):
    """The import statements of a module body, inside its if and try
    blocks too, but not inside a function or class."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, *(h.body for h in getattr(node, "handlers", ()))):
                yield from _top_level_imports(block)


def unread_imports(tree: ast.Module) -> list[str]:
    """The names a module's top-level imports bind that it never reads: a
    name is read when the code loads it, a string annotation names it, or
    `__all__` lists it."""
    bound = {}
    for node in _top_level_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for part in (p for a in annotations if a is not None for p in ast.walk(a)):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                read |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in read]


def test_every_imported_name_is_read():
    found = {}
    for path in [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        found[path.name] = unread_imports(ast.parse(path.read_text(), str(path)))
    assert {"model.py", "test_model.py", "oracles.py", "builders.py"} <= found.keys()
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_import_check_sees_an_unread_name():
    for code, unread in (
        ("import json", ["line 1: json"]),
        ("from a import b, c\nc()", ["line 1: b"]),
        ("import os.path", ["line 1: os"]),
        ("if X:\n    from a import B\nelse:\n    B = 1\nB()", []),
        ("if TYPE_CHECKING:\n    from a import B", ["line 2: B"]),
        ("try:\n    from a import b\nexcept ImportError:\n    from c import b\nb()", []),
        ("from a import B\ndef f(x: 'list[B]') -> None: pass", []),
        ("from a import b as c\n__all__ = ['c']", []),
        ("from __future__ import annotations", []),
        ("def f():\n    import json", []),
    ):
        assert unread_imports(ast.parse(code)) == unread, code


def package_imports(tree: ast.Module) -> list[tuple[int, str, str | None]]:
    """(line, module, name) of each `from .module import name` of a package
    module, at any depth: in a function, where it runs only on its path,
    and under `if TYPE_CHECKING:`, where it never runs, too.  A
    `from . import module` gives (line, module, None)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                module, name = (node.module, alias.name) if node.module else (alias.name, None)
                found.add((node.lineno, module, name))
    return sorted(found, key=lambda f: (f[0], f[1], f[2] or ""))


def test_every_package_import_names_an_existing_attribute():
    # a lazy import fails only when its path runs, and tier-1 seldom runs
    # some of those paths: the internal-error report, the decimal path
    missing, lazy = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for line, module, name in package_imports(tree):
            try:
                target = importlib.import_module(f"glueforge.{module}")
            except ImportError:
                missing.append(f"{path.name} line {line}: no module {module}")
                continue
            if name is not None and not hasattr(target, name):
                missing.append(f"{path.name} line {line}: {module} has no {name}")
        lazy |= {
            (path.stem, node.module)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
    assert {("cli", "ioutil"), ("gluing", "ioutil"), ("halfplane", "decimalpath")} <= lazy
    assert missing == []


def test_the_package_import_check_sees_every_form():
    for code, imports in (
        ("from .torus import Slope", [(1, "torus", "Slope")]),
        ("def f():\n    from .ioutil import nothing", [(2, "ioutil", "nothing")]),
        ("if TYPE_CHECKING:\n    from .halfplane import Tube, TeichPoint", [
            (2, "halfplane", "TeichPoint"), (2, "halfplane", "Tube")
        ]),
        ("from . import farey", [(1, "farey", None)]),
        ("import json\nfrom json import loads\nfrom glueforge.torus import Slope", []),
    ):
        assert package_imports(ast.parse(code)) == imports, code


def absolute_imports(tree: ast.Module, package: str) -> list[tuple[int, str, str]]:
    """(line, module, name) of each `from package[.module] import name` of
    a module, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module is not None:
            if node.module == package or node.module.startswith(f"{package}."):
                found |= {(node.lineno, node.module, alias.name) for alias in node.names}
    return sorted(found)


def top_level_names(tree: ast.Module) -> set[str]:
    """The names a module body binds, inside its if and try blocks too:
    the names a `from module import name` of it can reach."""
    names = set()
    blocks = [tree.body]
    while blocks:
        for node in blocks.pop():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            elif isinstance(node, (ast.If, ast.Try)):
                blocks += [node.body, node.orelse, *(h.body for h in getattr(node, "handlers", ()))]
    return names


def missing_names(imports: list[tuple[int, str, str]], has) -> list[str]:
    """The imports whose name has(module, name) does not find."""
    return [f"line {line}: {module} has no {name}" for line, module, name in imports if not has(module, name)]


def glueforge_has(module: str, name: str) -> bool:
    """Whether `from module import name` finds an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_benchmark_and_script_imports_name_existing_attributes():
    # perfbench/ runs only in CI's benchmark steps: a name it imports that
    # the package lost would fail there first.  The files are read, never
    # run.
    root = TESTS.parent
    script = root / "scripts" / "make_example_gluings.py"
    script_names = top_level_names(ast.parse(script.read_text(), str(script)))
    missing, checked = {}, 0
    for path in [*sorted((root / "perfbench").glob("*.py")), *sorted((root / "scripts").glob("*.py"))]:
        tree = ast.parse(path.read_text(), str(path))
        package = absolute_imports(tree, "glueforge")
        example = absolute_imports(tree, "make_example_gluings")
        checked += len(package) + len(example)
        found = missing_names(package, glueforge_has)
        found += missing_names(example, lambda module, name: name in script_names)
        if found:
            missing[f"{path.parent.name}/{path.name}"] = found
    assert checked >= 30
    assert missing == {}


def test_the_benchmark_import_check_sees_a_missing_name():
    tree = ast.parse(
        "from glueforge.hypgraph import FiniteGraph, cycle_graph, path_graph\n"
        "def f():\n    from glueforge import cli\n"
        "from make_example_gluings import EXAMPLES, core, nothing\n"
        "from .torus import Slope\nimport glueforge.farey\n"
    )
    assert absolute_imports(tree, "glueforge") == [
        (1, "glueforge.hypgraph", "FiniteGraph"),
        (1, "glueforge.hypgraph", "cycle_graph"),
        (1, "glueforge.hypgraph", "path_graph"),
        (3, "glueforge", "cli"),
    ]
    assert missing_names(absolute_imports(tree, "glueforge"), glueforge_has) == [
        "line 1: glueforge.hypgraph has no path_graph"
    ]
    script = ast.parse(
        "import argparse\nfrom glueforge.torus import Slope as S\nEXAMPLES = []\n"
        "A, (B, C) = 1, (2, 3)\ndef core(): pass\n"
        "if __name__ == '__main__':\n    main = 1\ntry:\n    X = 1\nexcept ImportError:\n    Y = 1\n"
        "def f():\n    nothing = 1\n"
    )
    names = top_level_names(script)
    assert names == {"argparse", "S", "EXAMPLES", "A", "B", "C", "core", "main", "X", "Y", "f"}
    example = absolute_imports(tree, "make_example_gluings")
    assert missing_names(example, lambda module, name: name in names) == [
        "line 4: make_example_gluings has no nothing"
    ]


def imported_test_modules(tree: ast.Module) -> list[str]:
    """The statements of a module, at any depth, that import a test module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0].startswith("test_")]
    return [f"line {line}: {module}" for line, module in sorted(found)]


def test_no_test_module_imports_another():
    # shared helpers live in builders.py and oracles.py, so that each test
    # module runs alone
    found = {p.name: imported_test_modules(ast.parse(p.read_text())) for p in TESTS.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_test_import_check_sees_every_form():
    for code, imports in (
        ("import test_cli", ["line 1: test_cli"]),
        ("from test_cli import run", ["line 1: test_cli"]),
        ("import json, test_cli.sub as t", ["line 1: test_cli.sub"]),
        ("def f():\n    from test_torus import g", ["line 2: test_torus"]),
        ("if X:\n    import test_a\nimport test_b", ["line 2: test_a", "line 3: test_b"]),
        ("from builders import core\nfrom oracles import cold", []),
        ("import pytest\nfrom glueforge import test_x\nfrom . import test_y", []),
    ):
        assert imported_test_modules(ast.parse(code)) == imports, code


def private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each private function, class and module constant
    that a module body binds, inside its if and try blocks too, and of
    each private method of its classes.  Dunder names are not private."""
    found = []
    blocks = [(tree.body, True)]
    while blocks:
        body, module_level = blocks.pop()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((node.lineno, node.name))
                if isinstance(node, ast.ClassDef):
                    blocks.append((node.body, False))
            elif module_level and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(node.lineno, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif module_level and isinstance(node, (ast.If, ast.Try)):
                blocks += [(b, True) for b in (node.body, node.orelse, *(h.body for h in getattr(node, "handlers", ())))]
    return sorted((line, name) for line, name in found if name.startswith("_") and not name.endswith("__"))


def read_names(tree: ast.Module) -> set[str]:
    """The names and attribute names a module loads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
    return read


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """The private definitions of the modules that no module reads."""
    read = set().union(*map(read_names, trees.values()))
    return [
        f"{name} line {line}: {defined}"
        for name, tree in sorted(trees.items())
        for line, defined in private_definitions(tree)
        if defined not in read
    ]


def test_every_private_name_of_the_package_is_read_by_the_package():
    # a helper that only tests call is code that no command runs
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert sum(len(private_definitions(tree)) for tree in trees.values()) >= 80
    assert unread_private_names(trees) == []


def test_the_private_name_check_sees_a_planted_name():
    planted = ast.parse(
        "def _lost(): pass\n"
        "def _used(): pass\n"
        "class _K:\n    def _gone(self): pass\n    def _kept(self): pass\n    def __init__(self): self._kept()\n"
        "_C, _D = 1, 2\n"
        "if X:\n    _E: int = 3\n"
        "def public():\n    _local = _used()\n    return _local, _K, _D\n"
    )
    assert private_definitions(planted) == [
        (1, "_lost"), (2, "_used"), (3, "_K"), (4, "_gone"), (5, "_kept"), (7, "_C"), (7, "_D"), (9, "_E")
    ]
    reader = ast.parse("import m\nm._E\nm._C = 4\n")
    assert unread_private_names({"m.py": planted, "r.py": reader}) == [
        "m.py line 1: _lost", "m.py line 4: _gone", "m.py line 7: _C"
    ]

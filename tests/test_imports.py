"""Every name a package module imports is read somewhere in that module,
every name the package exports has a reader, every private module-level
name is read by the package, and no module tunes the allocator or the
environment of its process."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import sqgbox

SOURCES = sorted(pathlib.Path(sqgbox.__file__).parent.glob("*.py"))


def _function_bindings(fn) -> set[str]:
    """The parameters of ``fn`` and the names stored in its own body, not in
    a nested function or class."""
    a = fn.args
    names = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)  # its body is a scope of its own
            continue
        elif isinstance(node, ast.Lambda):
            continue
        todo.extend(ast.iter_child_nodes(node))
    return names


def loaded_names(tree: ast.AST) -> set[str]:
    """Names loaded from module scope: a load inside a function that binds
    the name, as a parameter or a local, reads that binding instead.  A
    function's decorators, defaults and annotations load in its enclosing scope."""
    read = set()

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for outer in (node.args, *getattr(node, "decorator_list", ()), getattr(node, "returns", None)):
                if outer is not None:
                    visit(outer, bound)
            bound = bound | _function_bindings(node)
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, bound)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            read.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return read


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read: not loaded, not an attribute
    base, not exported (the package re-exports).  An ``__all__`` that is a
    list of strings exports those; one built from ``globals()`` exports
    every public name."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                read |= {elt.value for elt in node.value.elts}
            elif "globals" in loaded_names(node.value):
                read |= {name for name in bound if not name.startswith("_")}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c, d\nprint(sys, d)\n") == [
        "line 1: os",
        "line 3: c",
    ]
    assert unused_imports("import os.path\nfrom x import y\n__all__ = ['y']\nos.getcwd()\n") == []
    # an __all__ built from the namespace exports every public import, not a private one
    derived = "from x import y, _z\n__all__ = [n for n in globals() if not n.startswith('_')]\n"
    assert unused_imports(derived) == ["line 1: _z"]
    # a parameter or a local of the same name shadows the import: reading it
    # is not a read of the import, but a default or decorator is
    shadowed = "from a import step, b, c, d\ndef f(step, x=c):\n    b = step\n    return b\n@d\ndef g(): pass\n"
    assert unused_imports(shadowed) == ["line 1: step", "line 1: b"]
    assert loaded_names(ast.parse("def twin(step, **scheme):\n    return step, scheme\n")) == set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants of ``sources``
    (file name -> source) that no module loads or reads as an attribute."""
    defined, read = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        read |= loaded_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [f"{file}: {name}" for file, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_checker_flags_an_unread_private_name():
    sources = {
        "a.py": "_CHUNK = 16\n_CAP, _SPARE = 1, 2\ndef _helper(): return _CAP\nclass _Box: pass\n",
        "b.py": "import a\nfrom a import _helper\nprint(_helper(), a._Box)\n",
    }
    assert unread_private_names(sources) == ["a.py: _CHUNK", "a.py: _SPARE"]


def test_every_private_name_is_read():
    assert unread_private_names({path.name: path.read_text() for path in SOURCES}) == []


# The library runs inside other people's processes and must leave their
# allocator alone: MALLOC_TRIM_THRESHOLD_ alone turns off glibc's dynamic
# mmap threshold and took sqg-m128 simulate from 131k to 521k page faults.
ALLOCATOR_TUNING = ("MALLOC_", "mallopt", "malloc_trim", "putenv")


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_allocator_tuning(path):
    text = path.read_text()
    assert [word for word in ALLOCATOR_TUNING if word in text] == []


def test_import_sets_no_environment_variable():
    code = (
        "import importlib, os, pkgutil\n"
        "before = dict(os.environ)\n"
        "import sqgbox\n"
        "for mod in pkgutil.iter_modules(sqgbox.__path__):\n"
        "    importlib.import_module('sqgbox.' + mod.name)\n"
        "print(sorted(set(before.items()) ^ set(os.environ.items())))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(sqgbox.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# Exports that no module or acceptance criterion reads: references and
# readers that a test compares against, each with that test.
TEST_REFERENCES = {
    "evaluate_at": "test_domain.py::test_evaluate_at_matches_synthesis",
    "load_trajectory": "test_solver.py::test_written_trajectory_loads_back_as_simulate",
}


def test_every_export_is_read():
    # an export is loaded by a package module, imported by the acceptance
    # criteria, or a test reference that its test loads
    tests = pathlib.Path(__file__).parent
    read = set()
    for path in SOURCES:
        if path.name != "__init__.py":
            read |= loaded_names(ast.parse(path.read_text()))
    acceptance = ast.parse((tests / "test_acceptance.py").read_text())
    read |= {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom) for alias in node.names}
    for name, ref in TEST_REFERENCES.items():
        file, _, test = ref.partition("::")
        [fn] = [node for node in ast.walk(ast.parse((tests / file).read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == test]
        assert name in loaded_names(fn), ref
    assert sorted(set(sqgbox.__all__) - read - set(TEST_REFERENCES) - {"__version__"}) == []

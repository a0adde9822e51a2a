"""Every name a package module imports is read somewhere in that module,
and no module tunes the allocator or the environment of its process."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import sqgbox

SOURCES = sorted(pathlib.Path(sqgbox.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read: not loaded, not an attribute
    base, not listed in ``__all__`` (the package re-exports)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c, d\nprint(sys, d)\n") == [
        "line 1: os",
        "line 3: c",
    ]
    assert unused_imports("import os.path\nfrom x import y\n__all__ = ['y']\nos.getcwd()\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


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

"""Every name a package module imports is read somewhere in that module,
every name the package exports has a reader, and no module tunes the
allocator or the environment of its process."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import sqgbox

SOURCES = sorted(pathlib.Path(sqgbox.__file__).parent.glob("*.py"))


def loaded_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


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
    read = loaded_names(tree)
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


# Exports that no module or acceptance criterion reads: references and
# readers that a test compares against, each with that test.
TEST_REFERENCES = {
    "eigenvalue": "test_domain.py::test_lambda_table_matches_eigenvalue",
    "evaluate_at": "test_domain.py::test_evaluate_at_matches_synthesis",
    "grid_points": "test_domain.py::test_unit_mode_matches_sine_product",
    "load_trajectory": "test_solver.py::test_save_load_round_trip",
    "verify_bilinear": "test_harness.py::test_bilinear_battery_matches_verify_bilinear_bit_for_bit",
    "verify_duhamel_growth": "test_harness.py::test_duhamel_growth_heat_only",
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

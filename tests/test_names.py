"""No module binds one top-level name twice: the later binding would hide the earlier one,
and a test hidden that way is never collected. Each helper that a test module or the
shared inputs bind is read somewhere in ``tests/``, and each name that a package module
imports is read in that module."""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src/katograph", "tests", "demos") for path in (ROOT / folder).glob("*.py")
)
TESTS = sorted((ROOT / "tests").glob("*.py"))
# The modules whose helpers must each be read somewhere in tests/.
HELPER_MODULES = [path for path in TESTS if path.name.startswith(("test_", "inputs."))]
# The package's modules but ``__init__``, whose imports are its public names.
SOURCES = sorted(p for p in (ROOT / "src/katograph").glob("*.py") if p.name != "__init__.py")
# Imports a module keeps unread: the benchmark's tracer wraps analysis.symbol_contains by
# that module's name (ROADMAP item 16).
KEPT_IMPORTS = {"analysis": ["symbol_contains"]}


def top_level_names(tree: ast.Module):
    """Each name that a top-level def, class or assignment binds, once per binding."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                # x and y of ``x, y = ...`` are stored; ``x[0] = ...`` only loads x
                yield from (
                    n.id for n in ast.walk(target)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_binds_each_top_level_name_once(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    counts = Counter(top_level_names(tree))
    assert sorted(name for name, n in counts.items() if n > 1) == []


def test_a_name_bound_twice_is_found():
    source = "def f(): pass\nclass C: pass\nx, y = 1, 2\ndef x(): pass\nz: int = 0\nz[0] = 1\n"
    tree = ast.parse(source)
    assert sorted(top_level_names(tree)) == ["C", "f", "x", "x", "y", "z"]


def read_names(tree: ast.Module):
    """Each name that ``tree`` reads: a loaded name, an attribute, an imported name, or a
    function's parameter, which is how a test reads a fixture."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.arg):
            yield node.arg


def unread_helpers(tree: ast.Module, read: set) -> list:
    """The top-level names of ``tree`` that are neither tests nor dunders and not in ``read``."""
    return sorted(
        name for name in set(top_level_names(tree))
        if not name.startswith(("test_", "__")) and name not in read
    )


@functools.cache
def read_in_tests() -> frozenset:
    return frozenset(
        name for path in TESTS for name in read_names(ast.parse(path.read_text(encoding="utf-8")))
    )


@pytest.mark.parametrize("path", HELPER_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_binds_no_helper_that_tests_never_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unread_helpers(tree, read_in_tests()) == []


def test_an_unread_helper_is_found():
    source = (
        "import pytest\n@pytest.fixture\ndef fix(): pass\ndef used(): pass\ndef dead(): pass\n"
        "K, X = 1, 2\n__all__ = []\ndef test_a(fix): return used() + K\n"
    )
    tree = ast.parse(source)
    assert unread_helpers(tree, set(read_names(tree))) == ["X", "dead"]


def unread_imports(tree: ast.Module) -> list:
    """The names that ``tree`` imports, but from ``__future__``, and never loads."""
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        bound
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (bound := (alias.asname or alias.name).partition(".")[0]) not in loaded
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_each_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unread_imports(tree) == KEPT_IMPORTS.get(path.stem, [])


def test_an_unread_import_is_found():
    source = (
        "from __future__ import annotations\nimport os.path\nimport json as j\n"
        "from heapq import heappop, heappush\n"
        "def f(h: list) -> None: heappush(h, j.loads(os.sep))\n"
    )
    assert unread_imports(ast.parse(source)) == ["heappop"]

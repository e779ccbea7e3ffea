"""No module binds one top-level name twice: the later binding would hide the earlier one,
and a test hidden that way is never collected."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src/katograph", "tests", "demos") for path in (ROOT / folder).glob("*.py")
)


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

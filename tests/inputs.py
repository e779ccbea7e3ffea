"""The inputs that several test modules share, each written once.

- Extension entries: one JSON builder per printed tree the tests use. Each returns one
  entry, with its keys replaced by the keyword ``changes``, and ``document`` wraps
  entries into an extension document. The builders are written out by hand, not
  derived from ``Catalog`` trees, so that a test comparing an entry with the catalog
  compares two sources.
- Input files: ``write_input`` writes an input spec, and its extension, into a folder.
  ``triangle_spec`` and ``d15_chain_spec`` are the specs of two fixtures.
- The golden corpus: ``golden_corpus`` draws ``random_input(random.Random(20260808))``
  once. ``tests/test_golden.py`` pins that stream with its own draws.
- The tree family: ``tree_symbols(ctx)`` lists the symbols whose trees the tests read,
  in each of the 21 ``TREE_CONTEXTS``.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

from katograph.fuzz import random_input
from katograph.groups import (
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    FieldContext,
    borel,
    cyclic,
    dihedral,
    is_admissible,
    proj_linear,
)


def g(kind: str, **params) -> dict:
    """A group description: ``g("dihedral", n=5)``."""
    return dict(kind=kind, **params)


def document(*entries) -> dict:
    """The extension document of ``entries``."""
    return {"entries": list(entries)}


def d10_entry(**changes) -> dict:
    """D10 at p = 5: a plain star, no marked cusp."""
    return {
        "group": g("dihedral", n=10),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "v0", "group": g("dihedral", n=10)}],
        "cusps": [
            {"id": "c0", "base": "v0", "group": g("cyclic", n=2)},
            {"id": "c1", "base": "v0", "group": g("cyclic", n=2)},
            {"id": "c2", "base": "v0", "group": g("cyclic", n=10)},
        ],
    } | changes


def d10_marked_entry(**changes) -> dict:
    """D10 at p = 5 shaped like the built-in tree: its cusp c0 is a marked C2 that folds."""
    return {
        "group": g("dihedral", n=10),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "v0", "group": g("dihedral", n=10)}],
        "cusps": [
            {
                "id": "c0", "base": "v0", "group": g("cyclic", n=2),
                "marked_point": {"group": g("cyclic", n=2)}, "fold_on_attach": True,
            },
            {"id": "c1", "base": "v0", "group": g("cyclic", n=2)},
            {"id": "c2", "base": "v0", "group": g("cyclic", n=10)},
        ],
    } | changes


def d15_entry(**changes) -> dict:
    """D15 at p = 5, the entry of ``fixtures/extension_d15_k5.json``."""
    return {
        "group": g("dihedral", n=15),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "v0", "group": g("dihedral", n=15)}],
        "internal_edges": [],
        "cusps": [
            {"id": "c0", "base": "v0", "group": g("cyclic", n=2)},
            {"id": "c1", "base": "v0", "group": g("cyclic", n=2)},
            {"id": "c2", "base": "v0", "group": g("cyclic", n=15)},
        ],
    } | changes


def a5_entry(**changes) -> dict:
    """A5 at p = 5 with the built-in tree's two vertices: A5 -[D5]- D5."""
    return {
        "group": g("icosahedral"),
        "context": {"char_K": 0, "p": 5},
        "vertices": [
            {"id": "v0", "group": g("icosahedral")}, {"id": "v1", "group": g("dihedral", n=5)}
        ],
        "internal_edges": [{"id": "e0", "ends": ["v0", "v1"], "group": g("dihedral", n=5)}],
        "cusps": [
            {"id": "c0", "base": "v0", "group": g("cyclic", n=3)},
            {"id": "c1", "base": "v1", "group": g("cyclic", n=2)},
            {"id": "c2", "base": "v1", "group": g("cyclic", n=5)},
        ],
    } | changes


def d5_renamed_entry(**changes) -> dict:
    """D5 at p = 5 shaped like the built-in tree, with ids x0 and k0-k2 for v0 and c0-c2."""
    return {
        "group": g("dihedral", n=5),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "x0", "group": g("dihedral", n=5)}],
        "cusps": [
            {
                "id": "k0", "base": "x0", "group": g("cyclic", n=2),
                "marked_point": {"group": g("cyclic", n=2)}, "fold_on_attach": True,
            },
            {"id": "k1", "base": "x0", "group": g("cyclic", n=2)},
            {"id": "k2", "base": "x0", "group": g("cyclic", n=5)},
        ],
    } | changes


def d10_renamed_entry(**changes) -> dict:
    """D10 at p = 5 shaped like the built-in tree, with ids x0 and k0-k2 for v0 and c0-c2."""
    return {
        "group": g("dihedral", n=10),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "x0", "group": g("dihedral", n=10)}],
        "cusps": [
            {
                "id": "k0", "base": "x0", "group": g("cyclic", n=2),
                "marked_point": {"group": g("cyclic", n=2)}, "fold_on_attach": True,
            },
            {"id": "k1", "base": "x0", "group": g("cyclic", n=2)},
            {"id": "k2", "base": "x0", "group": g("cyclic", n=10)},
        ],
    } | changes


def a5_renamed_entry(**changes) -> dict:
    """The two-vertex A5 at p = 5 with vertex ids x0 and x1 for v0 and v1."""
    return {
        "group": g("icosahedral"),
        "context": {"char_K": 0, "p": 5},
        "vertices": [
            {"id": "x0", "group": g("icosahedral")}, {"id": "x1", "group": g("dihedral", n=5)}
        ],
        "internal_edges": [{"id": "e0", "ends": ["x0", "x1"], "group": g("dihedral", n=5)}],
        "cusps": [
            {"id": "c0", "base": "x0", "group": g("cyclic", n=3)},
            {"id": "c1", "base": "x1", "group": g("cyclic", n=2)},
            {"id": "c2", "base": "x1", "group": g("cyclic", n=5)},
        ],
    } | changes


def c5_entry(**changes) -> dict:
    """C5 at p = 5: one vertex and two C5 cusps."""
    return {
        "group": g("cyclic", n=5),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "v0", "group": g("cyclic", n=5)}],
        "cusps": [
            {"id": "c0", "base": "v0", "group": g("cyclic", n=5)},
            {"id": "c1", "base": "v0", "group": g("cyclic", n=5)},
        ],
    } | changes


def d7_entry(**changes) -> dict:
    """D7 at p = 7, where the built-in star serves D7: the catalog never reads it."""
    return {
        "group": g("dihedral", n=7),
        "context": {"char_K": 0, "p": 7},
        "vertices": [{"id": "v0", "group": g("dihedral", n=7)}],
        "cusps": [
            {"id": "x0", "base": "v0", "group": g("cyclic", n=2)},
            {"id": "x1", "base": "v0", "group": g("cyclic", n=2)},
            {"id": "x2", "base": "v0", "group": g("cyclic", n=7)},
        ],
    } | changes


def d3_entry(**changes) -> dict:
    """D3 at p = 5, prime to |D3| = 6, where the built-in star serves D3: never read."""
    return {
        "group": g("dihedral", n=3),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "v0", "group": g("dihedral", n=3)}],
        "cusps": [
            {"id": "c0", "base": "v0", "group": g("cyclic", n=2)},
            {"id": "c1", "base": "v0", "group": g("cyclic", n=2)},
            {"id": "c2", "base": "v0", "group": g("cyclic", n=3)},
        ],
    } | changes


def triangle_spec(**changes) -> dict:
    """A5 -[D5]- D10 at char 0, p = 5: ``fixtures/triangle_k5.json``."""
    return {
        "field": {"char_K": 0, "p": 5, "m": 1},
        "vertices": [
            {"id": "a", "group": g("icosahedral")}, {"id": "d", "group": g("dihedral", n=10)}
        ],
        "edges": [{"id": "e0", "from": "a", "to": "d", "group": g("dihedral", n=5)}],
    } | changes


def d15_chain_spec(**changes) -> dict:
    """D15 -[C15]- D15 at char 0, p = 5: ``fixtures/d15_chain_k5.json`` without its
    ``catalog_extension``."""
    return {
        "field": {"char_K": 0, "p": 5, "m": 1},
        "vertices": [
            {"id": "a", "group": g("dihedral", n=15)}, {"id": "b", "group": g("dihedral", n=15)}
        ],
        "edges": [{"id": "e0", "from": "a", "to": "b", "group": g("cyclic", n=15)}],
    } | changes


def write_input(folder: Path, spec, extension=None) -> Path:
    """Write ``spec`` as ``in.json`` in ``folder`` and return its path. An ``extension``
    document is written beside it as ``ext.json``, which the written spec names."""
    if extension is not None:
        (folder / "ext.json").write_text(json.dumps(extension), encoding="utf-8")
        spec = spec | {"catalog_extension": "ext.json"}
    path = folder / "in.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


@functools.cache
def _golden_draws() -> tuple:
    rng = random.Random(20260808)
    return tuple(random_input(rng) for _ in range(3000))


def golden_corpus(size: int = 1000) -> tuple:
    """The first ``size`` (at most 3000) draws of ``random_input(random.Random(20260808))``;
    the first 1000 are the golden corpus. They are drawn once, and the records are
    immutable, so every test may share them."""
    return _golden_draws()[:size]


TREE_CONTEXTS = [FieldContext(p, p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3, 4)]
TREE_CONTEXTS += [FieldContext(0, p, 1) for p in (2, 3, 5, 7, 11)]


def tree_symbols(ctx: FieldContext) -> list:
    """The admissible symbols among C_n and D_n for 2 <= n <= 30, A4, S4 and A5, and in
    char p also B(t, n) for 1 <= t <= m and n <= 60 dividing p^m − 1, and PGL2/PSL2(p^t)
    for t <= m; each once."""
    symbols = [cyclic(n) for n in range(2, 31)] + [dihedral(n) for n in range(2, 31)]
    symbols += [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
    if ctx.positive_char:
        q = ctx.p ** ctx.m - 1
        symbols += [borel(t, n) for t in range(1, ctx.m + 1) for n in range(1, 61) if q % n == 0]
        symbols += [proj_linear(kind, t) for kind in ("PGL", "PSL") for t in range(1, ctx.m + 1)]
    return [g for g in dict.fromkeys(symbols) if is_admissible(g, ctx)]

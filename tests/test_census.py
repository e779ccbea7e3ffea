"""The single-edge census: what becomes of each input u –[e]– v of the tree family.

In each of the 21 ``TREE_CONTEXTS``, both ends and the edge group e range over
``tree_symbols(ctx)``. Each ordered pair of ends is taken whose groups have trees and
attachment traces of e; e itself may lack a tree. Each input lands in one column: it
fails ``check_input``, it realizes, or ``realize`` rejects it. A rejection's column
names its reason, one of ``REASONS``.

``realize`` keeps only the rejections that an earlier gluing decides, so every
rejection that reads only the input and the catalog sits in the ``check_input``
column. ROADMAP item 8 decides whether the realizer's reasons are gluings to mend
or inputs to reject.

Each input that realizes is also put to the Riemann–Hurwitz identity
(``tests/test_riemann_hurwitz.py``). The counts of where it holds and where it fails
are pinned as measured; the failures are open (ROADMAP item 8), not passes.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import product

from inputs import TREE_CONTEXTS, tree_symbols
from katograph.analysis import structural_check
from katograph.catalog import Catalog, CatalogError
from katograph.graphs import (
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    RealizeError,
    ValidationError,
    check_input,
    realize,
)
from katograph.groups import FieldContext, order
from test_riemann_hurwitz import identity_sides

REASONS = (
    "stabilizer merge without containment",
    "ambiguous attachment",
    "both sides fold at marked points",
    "unsupported printed gluing",
)

# Each column's size and its smallest input (u, e, v, ctx). Inputs sort by the sum of
# the three group orders, then by the context (char_K, p, m), then by the names of u,
# e and v; so the pick does not depend on hash order.
COLUMNS = {
    ("check_input", "unsupported printed gluing"): (17, ("D5", "D5", "D5", FieldContext(0, 5))),
    ("realizes", ""): (8722, ("C2", "C2", "C2", FieldContext(0, 3))),
    ("realize", "stabilizer merge without containment"): (
        1020, ("B(1,2)", "C2", "D2", FieldContext(3, 3, 1))
    ),
    ("realize", "ambiguous attachment"): (232, ("C2", "C2", "D5", FieldContext(0, 5))),
    ("realize", "both sides fold at marked points"): (
        45, ("PGL2(p^1)", "B(1,2)", "PGL2(p^1)", FieldContext(3, 3, 1))
    ),
}

# The inputs that realize, by: whether the Riemann–Hurwitz identity holds; the sorted kinds
# of the two ends' first candidate traces; whether the edge group is proper (equal to
# neither end); and whether the structural check passes.
RIEMANN_HURWITZ = {
    (False, ("injective", "injective"), False, False): 56,
    (False, ("injective", "injective"), True, False): 252,
    (False, ("iso", "iso"), True, True): 298,
    (True, ("fold", "fold"), True, True): 4874,
    (True, ("fold", "iso"), False, True): 1158,
    (True, ("fold", "iso"), True, True): 88,
    (True, ("injective", "injective"), False, True): 168,
    (True, ("injective", "injective"), True, True): 904,
    (True, ("iso", "iso"), False, True): 924,
}

# The realized graphs of the inputs that realize, in census order, without their catalog.
REALIZED_DIGEST = "c761f97bf1c1f2c4e7974ac578a69e4c464bf2074d7e8725d9ee1327d6768f79"


def single_edges():
    """Each census input, in context order, then edge group, then end order."""
    catalog = Catalog()
    for ctx in TREE_CONTEXTS:
        symbols, hosts = tree_symbols(ctx), []
        for g in symbols:
            try:
                catalog.elementary_tree(g, ctx)
            except CatalogError:  # such as D15 at p = 5, which needs an extension entry
                continue
            hosts.append(g)
        for e in symbols:
            try:
                ends = [h for h in hosts if catalog.attachment_traces(e, h, ctx)]
            except CatalogError:  # e glues nowhere in ctx
                continue
            for u, v in product(ends, repeat=2):
                vertices = (InputVertex("u", u), InputVertex("v", v))
                yield InputGraphOfGroups(ctx, vertices, (InputEdge("e", ("u", "v"), e),)), catalog


def reason(exc: Exception) -> str:
    return next(r for r in REASONS if r in str(exc))


def test_single_edge_census():
    sizes, smallest, digest, identity = Counter(), {}, hashlib.sha256(), Counter()
    for raw, catalog in single_edges():
        (u, v), (e,), ctx = raw.vertices, raw.edges, raw.ctx
        try:
            checked = check_input(raw, catalog)
        except ValidationError as exc:
            column = ("check_input", reason(exc))
        else:
            try:  # realize raises nothing else
                graph = realize(checked)
            except RealizeError as exc:
                column = ("realize", reason(exc))
            else:
                column = ("realizes", "")
                digest.update(repr(graph[:6]).encode())
                chi, right = identity_sides(raw, catalog)
                ((_, ends),) = checked.traces
                kinds = tuple(sorted(traces[0].kind for traces in ends))
                proper = e.group not in (u.group, v.group)
                identity[chi == right, kinds, proper, structural_check(graph).ok] += 1
        key = (sum(order(x.group, ctx) for x in (u, e, v)), tuple(ctx))
        key += (str(u.group), str(e.group), str(v.group), ctx)
        sizes[column] += 1
        smallest[column] = min(smallest.get(column, key), key)
    assert {c: (sizes[c], smallest[c][2:]) for c in sizes} == COLUMNS
    assert sum(sizes.values()) == 10036
    assert digest.hexdigest() == REALIZED_DIGEST
    assert identity == RIEMANN_HURWITZ

"""The structural check's generation rule (b), kept per catalog, against its reference.

``Catalog.generation_violation`` keeps each verdict per (vertex group, incident
stabilizers in order, context). ``reference.generation_verdict`` is the rule as
``analysis.structural_check`` applied it before it moved into the catalog, and
recomputes every verdict; the two must give the same message on every vertex.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import reference

from katograph.analysis import structural_check
from katograph.catalog import Catalog
from katograph.cli import parse_spec
from katograph.fuzz import random_input
from katograph.graphs import GraphCusp, GraphEdge, GraphVertex, KatoGraph, check_input, realize
from katograph.groups import (
    ContextError,
    FieldContext,
    TETRAHEDRAL,
    TRIVIAL,
    cyclic,
    dihedral,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"
CTX7 = FieldContext(0, 7, 1)


def _incident(g: KatoGraph) -> list[tuple]:
    """(vertex group, incident stabilizers) per vertex, cusps before non-trivial
    edges, as ``structural_check`` collects them."""
    incident = {v.id: [] for v in g.vertices}
    for c in g.cusps:
        incident[c.base].append(c.stabilizer)
    for e in g.finite_edges:
        if e.stabilizer != TRIVIAL:
            for end in e.ends:
                incident[end].append(e.stabilizer)
    return [(v.stabilizer, tuple(incident[v.id])) for v in g.vertices]


def _compare(g: KatoGraph) -> int:
    """Check every vertex of ``g`` against the reference; the number of checked
    vertices: a non-trivial group with incident groups, where the whitelist is read."""
    checked = 0
    for gv, inc in _incident(g):
        got = g.catalog.generation_violation(gv, inc, g.ctx)
        assert got == reference.generation_verdict(gv, inc, g.ctx, g.catalog), (gv, inc)
        checked += gv != TRIVIAL and bool(inc)
    return checked


def test_generation_violation_matches_the_reference_on_the_golden_corpus():
    # The 1000 inputs of the golden corpus, with one catalog, as test_golden builds them.
    rng = random.Random(20260808)
    catalog = Catalog()
    checked = sum(
        _compare(realize(check_input(random_input(rng), catalog))) for _ in range(1000)
    )
    assert checked == 2308


@pytest.mark.parametrize(
    "name, checked",
    [("borel_p2_t2_s4.json", 2), ("corrupted_e_edge.json", 3), ("d15_chain_k5.json", 2),
     ("schottky_genus2.json", 0), ("triangle_k5.json", 2)],
)
def test_generation_violation_matches_the_reference_on_the_fixtures(name, checked):
    # d15_chain_k5 reads the extension's D15 tree; corrupted_e_edge breaks (b);
    # the Schottky vertices are trivial.
    raw, catalog = parse_spec(FIXTURES / name)
    assert _compare(realize(check_input(raw, catalog))) == checked


def _vertex_with(cusp, edge) -> KatoGraph:
    """A D5 vertex v with one cusp and one edge to a vertex w of the edge's group."""
    return KatoGraph(
        CTX7,
        (GraphVertex("v", dihedral(5)), GraphVertex("w", edge)),
        (GraphEdge("e0", ("v", "w"), edge),),
        (GraphCusp("c0", "v", cusp),),
        (),
    )


def test_the_first_group_not_contained_depends_on_the_incident_order():
    catalog = Catalog()
    c3, c4, d5 = cyclic(3), cyclic(4), dihedral(5)
    for inc in ((c3, c4), (c4, c3)):
        expected = f"incident stabilizer {inc[0]} is not contained in D5"
        assert reference.generation_verdict(d5, inc, CTX7, catalog) == expected
        for _ in range(2):  # the second answer is the kept one
            assert catalog.generation_violation(d5, inc, CTX7) == expected
    # The structural check lists a vertex's cusps before its edges.
    for cusp, edge in ((c3, c4), (c4, c3)):
        assert structural_check(_vertex_with(cusp, edge)).generation_violations[0] == (
            f"vertex v: incident stabilizer {cusp} is not contained in D5"
        )


def test_generation_violation_keeps_no_errors():
    catalog = Catalog()
    for _ in range(2):
        with pytest.raises(ContextError, match="A4 inadmissible"):
            catalog.generation_violation(TETRAHEDRAL, (cyclic(2),), FieldContext(3, 3, 1))

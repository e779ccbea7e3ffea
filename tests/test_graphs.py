import random

import pytest

from katograph.fuzz import random_input
from katograph.graphs import (
    GenusEdge,
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    KatoGraph,
    RealizeError,
    check_input,
    genus,
    irreducible_components,
    realize,
    validate_input,
)
from katograph.groups import (
    FieldContext,
    ICOSAHEDRAL,
    TETRAHEDRAL,
    TRIVIAL,
    borel,
    cyclic,
    dihedral,
    elementary,
    proj_linear,
)

CTX5 = FieldContext(0, 5, 1)
CTX7 = FieldContext(0, 7, 1)


def triangle_input(m=1):
    return InputGraphOfGroups(
        CTX5,
        (InputVertex("a", ICOSAHEDRAL), InputVertex("d", dihedral(10 * m))),
        (InputEdge("e0", ("a", "d"), dihedral(5)),),
    )


def borel_input(p, t, s, m):
    return InputGraphOfGroups(
        FieldContext(p, p, m),
        (InputVertex("a", proj_linear("PGL", t)), InputVertex("b", borel(s, p ** t - 1))),
        (InputEdge("e0", ("a", "b"), None, True),),
    )


# -- validation -------------------------------------------------------------------


def test_validate_triangle_ok():
    assert validate_input(triangle_input()) == []


def test_validate_rejects_polyhedral_edge():
    raw = InputGraphOfGroups(
        FieldContext(7, 7, 1),
        (InputVertex("a", TETRAHEDRAL), InputVertex("b", TETRAHEDRAL)),
        (InputEdge("e0", ("a", "b"), TETRAHEDRAL),),
    )
    msgs = validate_input(raw)
    assert any("not Borel/cyclic/printed" in m for m in msgs)


def test_validate_rejects_nontrivial_genus_edge():
    raw = InputGraphOfGroups(
        CTX7,
        (InputVertex("a", cyclic(3)),),
        (),
        (GenusEdge("g0", ("a", "a"), cyclic(2)),),
    )
    msgs = validate_input(raw)
    assert any("trivial stabilizer" in m for m in msgs)


def test_validate_rejects_cycles_and_unknowns():
    raw = InputGraphOfGroups(
        CTX7,
        (InputVertex("a", dihedral(6)), InputVertex("b", dihedral(6))),
        (
            InputEdge("e0", ("a", "b"), cyclic(6)),
            InputEdge("e1", ("a", "b"), cyclic(2)),
            InputEdge("e2", ("a", "zzz"), cyclic(2)),
        ),
    )
    msgs = validate_input(raw)
    assert any("cycle" in m for m in msgs)
    assert any("does not exist" in m for m in msgs)


def test_validate_rejects_cross_component_genus_edge():
    raw = InputGraphOfGroups(
        CTX7,
        (InputVertex("a", cyclic(3)), InputVertex("b", cyclic(3))),
        (),
        (GenusEdge("g0", ("a", "b")),),
    )
    msgs = validate_input(raw)
    assert any("different components" in m for m in msgs)


def test_validate_reports_missing_trace():
    raw = InputGraphOfGroups(
        FieldContext(2, 2, 4),
        (InputVertex("a", dihedral(5)), InputVertex("b", borel(2, 3))),
        (InputEdge("e0", ("a", "b"), borel(2, 3)),),
    )
    msgs = validate_input(raw)
    assert any("no attachment trace" in m for m in msgs)


_HINTED_C6 = InputEdge("e0", ("a", "b"), cyclic(6), site_hints=("c9", None))


@pytest.mark.parametrize(
    "vertex_ids, edges, missing_traces",
    [
        ("ab", (_HINTED_C6,), 0),
        # A C5 edge between two D6 vertices has no trace at either end.
        ("abc", (_HINTED_C6, InputEdge("e1", ("b", "c"), cyclic(5))), 2),
    ],
    ids=["bad-hint", "bad-hint-and-missing-traces"],
)
def test_validate_bad_hint(vertex_ids, edges, missing_traces):
    raw = InputGraphOfGroups(CTX7, tuple(InputVertex(v, dihedral(6)) for v in vertex_ids), edges)
    msgs = validate_input(raw)
    assert any("site hint" in m for m in msgs)
    assert sum("no attachment trace" in m for m in msgs) == missing_traces
    assert len(msgs) == 1 + missing_traces


# -- realization: printed examples ------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_realize_triangle(m):
    checked = check_input(triangle_input(m))
    g = realize(checked)
    stabs = sorted(str(v.stabilizer) for v in g.vertices)
    assert stabs == ["A5", f"D{10 * m}"]
    assert len(g.finite_edges) == 1
    assert g.finite_edges[0].stabilizer == dihedral(5)
    a5 = next(v.id for v in g.vertices if str(v.stabilizer) == "A5")
    dd = next(v.id for v in g.vertices if str(v.stabilizer) == f"D{10 * m}")
    assert set(g.finite_edges[0].ends) == {a5, dd}
    cusps = sorted((str(c.stabilizer), c.base) for c in g.cusps)
    assert cusps == sorted([("C3", a5), ("C2", dd), (f"C{10 * m}", dd)])


@pytest.mark.parametrize("p,t,s,m", [(2, 2, 4, 4), (3, 1, 2, 2), (2, 3, 6, 6)])
def test_realize_borel_tower(p, t, s, m):
    checked = check_input(borel_input(p, t, s, m))
    n = p ** t - 1
    assert checked.edges[0].group == borel(t, n)
    g = realize(checked)
    assert len(g.cusps) == 2
    stabs = sorted(str(c.stabilizer) for c in g.cusps)
    assert stabs == sorted([f"C{p ** t + 1}", str(borel(s, n))])
    assert len(g.finite_edges) == 1 and g.finite_edges[0].stabilizer == borel(t, n)


def test_realize_single_cyclic_vertex():
    raw = InputGraphOfGroups(CTX7, (InputVertex("a", cyclic(4)),))
    g = realize(check_input(raw))
    assert len(g.vertices) == 1
    assert [str(c.stabilizer) for c in g.cusps] == ["C4", "C4"]


def test_realize_trivial_vertex_is_bare():
    raw = InputGraphOfGroups(CTX7, (InputVertex("a", TRIVIAL),))
    g = realize(check_input(raw))
    assert len(g.vertices) == 1 and not g.cusps


def test_realize_elementary_tripod():
    ctx = FieldContext(2, 2, 2)
    raw = InputGraphOfGroups(
        ctx,
        (InputVertex("a", elementary(2)), InputVertex("b", elementary(2))),
        (InputEdge("e0", ("a", "b"), elementary(2)),),
    )
    g = realize(check_input(raw))
    assert len(g.vertices) == 3
    assert len(g.finite_edges) == 2
    assert len(g.cusps) == 1
    junction = next(v for v in g.vertices if v.id == "e0:w")
    assert junction.stabilizer == elementary(2)
    assert g.cusps[0].base == "e0:w"
    assert any("tripod" in note for note in g.notes)


def test_realize_cyclic_segment_between_stars():
    # Two dihedral stars joined along the rotation mirror.
    raw = InputGraphOfGroups(
        CTX7,
        (InputVertex("a", dihedral(6)), InputVertex("b", dihedral(6))),
        (InputEdge("e0", ("a", "b"), cyclic(6)),),
    )
    g = realize(check_input(raw))
    assert len(g.vertices) == 2
    assert len(g.cusps) == 4
    assert sorted(str(c.stabilizer) for c in g.cusps) == ["C2", "C2", "C2", "C2"]


def test_realize_absorbs_full_cyclic_amalgam():
    # C6 *_{C6} C6 *_{C6} C6 collapses to a single C6 tree.
    raw = InputGraphOfGroups(
        CTX7,
        tuple(InputVertex(f"v{i}", cyclic(6)) for i in range(3)),
        (
            InputEdge("e0", ("v0", "v1"), cyclic(6)),
            InputEdge("e1", ("v1", "v2"), cyclic(6)),
        ),
    )
    g = realize(check_input(raw))
    assert len(g.vertices) == 1
    assert len(g.cusps) == 2
    assert not g.finite_edges


def test_realize_borel_absorption():
    ctx = FieldContext(2, 2, 4)
    raw = InputGraphOfGroups(
        ctx,
        (InputVertex("a", borel(4, 3)), InputVertex("b", borel(2, 3))),
        (InputEdge("e0", ("a", "b"), borel(2, 3)),),
    )
    g = realize(check_input(raw))
    assert len(g.vertices) == 1
    assert g.vertices[0].stabilizer == borel(4, 3)
    assert sorted(str(c.stabilizer) for c in g.cusps) == ["B(4,3)", "C3"]


def test_realize_merge_without_containment_fails():
    ctx = FieldContext(2, 2, 4)
    raw = InputGraphOfGroups(
        ctx,
        (InputVertex("a", dihedral(5)), InputVertex("b", borel(4, 5))),
        (InputEdge("e0", ("a", "b"), cyclic(5)),),
    )
    checked = check_input(raw)
    with pytest.raises(RealizeError, match="containment"):
        realize(checked)


def test_realize_rejects_double_marked_fold():
    ctx = FieldContext(2, 2, 2)
    raw = InputGraphOfGroups(
        ctx,
        (InputVertex("a", proj_linear("PGL", 2)), InputVertex("b", proj_linear("PGL", 2))),
        (InputEdge("e0", ("a", "b"), borel(2, 3)),),
    )
    checked = check_input(raw)
    with pytest.raises(RealizeError, match="marked points"):
        realize(checked)


def test_realize_rejects_site_reuse():
    ctx = FieldContext(2, 2, 2)
    raw = InputGraphOfGroups(
        ctx,
        (
            InputVertex("a", proj_linear("PGL", 2)),
            InputVertex("b", borel(2, 3)),
            InputVertex("c", borel(2, 3)),
        ),
        (
            InputEdge("e0", ("a", "b"), borel(2, 3)),
            InputEdge("e1", ("a", "c"), borel(2, 3)),
        ),
    )
    checked = check_input(raw)
    with pytest.raises(RealizeError, match="already used|sites"):
        realize(checked)


def test_realize_ambiguous_requires_hint():
    # A C2 edge into the printed D5 tree matches both the marked and the
    # plain order-2 cusp, which are genuinely different sites.
    raw = InputGraphOfGroups(
        CTX5,
        (InputVertex("a", dihedral(5)), InputVertex("b", dihedral(4))),
        (InputEdge("e0", ("a", "b"), cyclic(2)),),
    )
    checked = check_input(raw)
    with pytest.raises(RealizeError, match="ambiguous"):
        realize(checked)
    hinted = InputGraphOfGroups(
        CTX5,
        (InputVertex("a", dihedral(5)), InputVertex("b", dihedral(4))),
        (InputEdge("e0", ("a", "b"), cyclic(2), site_hints=("c1", None)),),
    )
    g = realize(check_input(hinted))
    assert len(g.cusps) == 4


def test_realize_equivalent_sites_picked_deterministically():
    # Both order-2 cusps of a generic dihedral tree are indistinguishable.
    raw = InputGraphOfGroups(
        CTX7,
        (InputVertex("a", dihedral(6)), InputVertex("b", dihedral(4))),
        (InputEdge("e0", ("a", "b"), cyclic(2)),),
    )
    g = realize(check_input(raw))
    assert len(g.cusps) == 4


def test_realize_deterministic():
    raw = triangle_input(2)
    g1 = realize(check_input(raw))
    g2 = realize(check_input(raw))
    assert g1 == g2


def test_trivial_connector_preserves_cusps():
    base = triangle_input()
    g_base = realize(check_input(base))
    extended = InputGraphOfGroups(
        CTX5,
        base.vertices + (InputVertex("t", TRIVIAL),),
        base.edges + (InputEdge("e9", ("a", "t"), TRIVIAL),),
    )
    g_ext = realize(check_input(extended))
    assert sorted(str(c.stabilizer) for c in g_base.cusps) == sorted(
        str(c.stabilizer) for c in g_ext.cusps
    )


# -- components and genus ------------------------------------------------------------------


def test_components_triangle():
    g = realize(check_input(triangle_input()))
    assert len(irreducible_components(g)) == 1


def test_components_split_by_trivial_edge():
    raw = InputGraphOfGroups(
        CTX7,
        (InputVertex("a", cyclic(3)), InputVertex("b", cyclic(3))),
        (InputEdge("e0", ("a", "b"), TRIVIAL),),
    )
    g = realize(check_input(raw))
    assert len(irreducible_components(g)) == 2


def test_components_empty_graph():
    g = KatoGraph(CTX7, (), (), (), ())
    assert irreducible_components(g) == ()


def test_genus_counts():
    g = realize(check_input(triangle_input()))
    assert genus(g) == 0
    raw = InputGraphOfGroups(
        CTX5,
        triangle_input().vertices,
        triangle_input().edges,
        (GenusEdge("g0", ("a", "d")),),
    )
    assert genus(realize(check_input(raw))) == 1
    raw2 = InputGraphOfGroups(
        CTX5,
        triangle_input().vertices,
        triangle_input().edges,
        (GenusEdge("g0", ("a", "d")), GenusEdge("g1", ("a", "d"))),
    )
    g2 = realize(check_input(raw2))
    # Betti number by hand: E=3, V=2, one component.
    assert genus(g2) == 3 - 2 + 1 == 2


def test_schottky_input():
    raw = InputGraphOfGroups(
        FieldContext(2, 2, 1),
        (InputVertex("a", TRIVIAL),),
        (),
        (GenusEdge("g0", ("a", "a")), GenusEdge("g1", ("a", "a"))),
    )
    g = realize(check_input(raw))
    assert not g.cusps
    assert genus(g) == 2


# -- conservation and invariants under fuzz ------------------------------------------------


def test_conservation_formula_holds_on_random_sample():
    rng = random.Random(777)
    for _ in range(200):
        raw = random_input(rng)
        checked = check_input(raw)
        g = realize(checked)  # realize self-checks conservation
        assert g.ctx == raw.ctx


def _is_forest(vertex_ids, edge_pairs):
    parent = {v: v for v in vertex_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def test_genus_loop_removal_leaves_forest():
    rng = random.Random(31415)
    for _ in range(150):
        g = realize(check_input(random_input(rng)))
        assert _is_forest(
            [v.id for v in g.vertices], [e.ends for e in g.finite_edges]
        )


def test_stabilizer_monotonicity():
    from katograph.groups import symbol_contains

    rng = random.Random(2718)
    for _ in range(150):
        g = realize(check_input(random_input(rng)))
        stab = {v.id: v.stabilizer for v in g.vertices}
        for c in g.cusps:
            assert symbol_contains(stab[c.base], c.stabilizer, g.ctx), (c, stab[c.base])
        for e in g.finite_edges:
            for end in e.ends:
                assert symbol_contains(stab[end], e.stabilizer, g.ctx), (e, stab[end])

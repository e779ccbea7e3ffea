import random
from pathlib import Path

import pytest

from katograph.analysis import (
    FormulaCensus,
    branch_points,
    census,
    contract,
    count_cusps_direct,
    cusp_count_char0,
    cusp_count_general,
    is_ordinary,
    separation_plan,
    structural_check,
)
from katograph.cli import parse_spec
from katograph.fuzz import random_input
from katograph.graphs import (
    GraphCusp,
    GraphEdge,
    GraphVertex,
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    KatoGraph,
    check_input,
    realize,
)
from katograph.groups import (
    ContextError,
    FieldContext,
    ICOSAHEDRAL,
    TETRAHEDRAL,
    TRIVIAL,
    borel,
    cyclic,
    dihedral,
    elementary,
    is_admissible,
    proj_linear,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"
CTX5 = FieldContext(0, 5, 1)
CTX7 = FieldContext(0, 7, 1)


def triangle_graph(m=1):
    raw = InputGraphOfGroups(
        CTX5,
        (InputVertex("a", ICOSAHEDRAL), InputVertex("d", dihedral(10 * m))),
        (InputEdge("e0", ("a", "d"), dihedral(5)),),
    )
    checked = check_input(raw)
    return checked, realize(checked)


def borel_graph(p=2, t=2, s=4, m=4):
    raw = InputGraphOfGroups(
        FieldContext(p, p, m),
        (InputVertex("a", proj_linear("PGL", t)), InputVertex("b", borel(s, p ** t - 1))),
        (InputEdge("e0", ("a", "b"), None, True),),
    )
    checked = check_input(raw)
    return checked, realize(checked)


# -- census and formulas -------------------------------------------------------------


def test_census_triangle():
    _, g = triangle_graph()
    assert census(g) == FormulaCensus(C=0, c=0, D=2, d=1)


def test_census_single_cyclic():
    raw = InputGraphOfGroups(CTX7, (InputVertex("a", cyclic(6)),))
    g = realize(check_input(raw))
    assert census(g) == FormulaCensus(1, 0, 0, 0)


def test_census_segment_of_stars():
    raw = InputGraphOfGroups(
        CTX7,
        (InputVertex("a", dihedral(6)), InputVertex("b", dihedral(6))),
        (InputEdge("e0", ("a", "b"), cyclic(6)),),
    )
    g = realize(check_input(raw))
    assert census(g) == FormulaCensus(0, 1, 2, 0)
    assert cusp_count_char0(census(g)) == 4 == count_cusps_direct(g)


def test_cusp_count_char0_values():
    assert cusp_count_char0(FormulaCensus(0, 0, 2, 1)) == 3
    assert cusp_count_char0(FormulaCensus(0, 1, 2, 0)) == 4
    assert cusp_count_char0(FormulaCensus(0, 0, 0, 0)) == 0


def test_cusp_count_general_examples():
    checked, g = borel_graph()
    assert cusp_count_general(checked) == 2 == count_cusps_direct(g)
    raw = InputGraphOfGroups(
        FieldContext(2, 2, 3), (InputVertex("a", elementary(3)),)
    )
    checked = check_input(raw)
    assert cusp_count_general(checked) == 1
    raw = InputGraphOfGroups(FieldContext(2, 2, 3), (InputVertex("a", dihedral(7)),))
    checked = check_input(raw)
    assert cusp_count_general(checked) == 2


def test_counts_on_triangle():
    checked, g = triangle_graph()
    assert count_cusps_direct(g) == 3
    assert cusp_count_general(checked) == 3
    assert cusp_count_char0(census(g)) == 3


def test_empty_graph_direct_count():
    g = KatoGraph(CTX7, (), (), (), ())
    assert count_cusps_direct(g) == 0


# -- branch points and ordinarity ---------------------------------------------------------


def test_branch_points_triangle():
    _, g = triangle_graph()
    sig = branch_points(g)
    assert sorted(str(b.stabilizer) for b in sig) == ["C10", "C2", "C3"]
    anchors = {b.id: b.base for b in sig}
    for c in g.cusps:
        assert anchors[c.id] == c.base


def test_branch_points_borel():
    _, g = borel_graph()
    sig = branch_points(g)
    assert sorted(str(b.stabilizer) for b in sig) == ["B(4,3)", "C5"]


def test_branch_points_schottky_empty():
    raw = InputGraphOfGroups(FieldContext(2, 2, 1), (InputVertex("a", TRIVIAL),))
    g = realize(check_input(raw))
    assert branch_points(g) == ()


def cusped(ctx, *symbols):
    """A hand-built graph: one vertex carrying one cusp per symbol."""
    cusps = tuple(GraphCusp(f"b{i}", "v", s) for i, s in enumerate(symbols))
    return KatoGraph(ctx, (GraphVertex("v", TRIVIAL),), (), cusps, ())


def test_is_ordinary():
    ctx = FieldContext(2, 2, 4)
    assert is_ordinary(cusped(ctx, cyclic(5), borel(4, 3)))
    ctx3 = FieldContext(3, 3, 2)
    assert is_ordinary(cusped(ctx3, cyclic(5), borel(1, 2)))
    assert not is_ordinary(cusped(FieldContext(7, 7, 1), TETRAHEDRAL))
    # C3 has order divisible by p = 3; B(1,4) has 4 not dividing 3 - 1.
    for g in (cyclic(3), borel(1, 4)):
        assert not is_ordinary(cusped(ctx3, g))
    with pytest.raises(ContextError):
        is_ordinary(cusped(CTX7, cyclic(5), borel(4, 3)))


def test_admissible_borel_cusps_are_ordinary():
    # Admissibility of B(t, n) asks gcd(n, p) = 1 and n | p^t - 1, as ordinarity
    # does, so no cusp of a realized input is non-ordinary. No cusp is trivial.
    checked = 0
    for p in (2, 3, 5, 7):
        for m in (1, 2, 3, 4, 6):
            ctx = FieldContext(p, p, m)
            for t in range(m + 1):
                for n in range(1, 200):
                    g = borel(t, n)
                    if g != TRIVIAL and is_admissible(g, ctx):
                        checked += 1
                        assert is_ordinary(cusped(ctx, g)), g
    assert checked == 3153


# -- contraction -------------------------------------------------------------------------


def test_contract_triangle_keeps_segment():
    _, g = triangle_graph()
    sk = contract(g)
    assert len(sk.vertices) == 2
    assert len(sk.edges) == 1
    assert sk.edges[0].stabilizer == dihedral(5)
    assert sk.genus == 0
    assert not sk.warnings


def test_contract_single_cyclic_vertex():
    raw = InputGraphOfGroups(CTX7, (InputVertex("a", cyclic(6)),))
    g = realize(check_input(raw))
    sk = contract(g)
    assert len(sk.vertices) == 1 and not sk.edges


def test_contract_absorbs_equal_edge():
    # s = t: the edge group equals the Borel endpoint; it collapses into PGL2.
    _, g = borel_graph(p=2, t=2, s=2, m=2)
    sk = contract(g)
    assert len(sk.vertices) == 1
    assert str(sk.vertices[0].stabilizer) == "PGL2(p^2)"
    assert not sk.edges


def test_contract_idempotent():
    for checked, g in (triangle_graph(), borel_graph()):
        sk = contract(g)
        again = contract(KatoGraph(g.ctx, sk.vertices, sk.edges, (), ()))
        assert again.vertices == sk.vertices
        assert again.edges == sk.edges


def test_contract_valency_reading_warning():
    # Center D4 with three C2 leaves: the edge stabilizer equals each leaf
    # group; the survivor (center) has valency 3, the removed leaf valency 1,
    # so the two readings disagree and a warning must be emitted.
    ctx = CTX7
    g = KatoGraph(
        ctx,
        (
            GraphVertex("c", dihedral(4)),
            GraphVertex("x", cyclic(2)),
            GraphVertex("y", cyclic(2)),
            GraphVertex("z", cyclic(2)),
        ),
        (
            GraphEdge("e0", ("c", "x"), cyclic(2)),
            GraphEdge("e1", ("c", "y"), cyclic(2)),
            GraphEdge("e2", ("c", "z"), cyclic(2)),
        ),
        (),
        (),
    )
    sk = contract(g)
    assert any("valency reading" in w for w in sk.warnings)
    # literal reading: valency(center) = 3, nothing collapses
    assert len(sk.vertices) == 4


def test_contract_tie_aborts():
    # Edge group C4 equals one endpoint; the other endpoint D2 has the same
    # order but is a different group: the collapse aborts with a warning.
    g = KatoGraph(
        CTX7,
        (GraphVertex("a", cyclic(4)), GraphVertex("b", dihedral(2))),
        (GraphEdge("e0", ("a", "b"), cyclic(4)),),
        (),
        (),
    )
    sk = contract(g)
    assert len(sk.vertices) == 2
    assert any("ambiguous" in w for w in sk.warnings)


def test_contract_preserves_genus():
    from katograph.graphs import genus as graph_genus

    rng = random.Random(31337)
    for _ in range(120):
        raw = random_input(rng)
        g = realize(check_input(raw))
        assert contract(g).genus == graph_genus(g)


def test_contract_schottky_tree_collapses():
    raw = InputGraphOfGroups(
        FieldContext(2, 2, 1),
        (InputVertex("a", TRIVIAL), InputVertex("b", TRIVIAL)),
        (InputEdge("e0", ("a", "b"), TRIVIAL),),
        (),
    )
    g = realize(check_input(raw))
    sk = contract(g)
    assert len(sk.vertices) == 1
    assert sk.genus == 0


# -- structural check -----------------------------------------------------------------------


def test_structural_triangle_ok():
    _, g = triangle_graph()
    rep = structural_check(g)
    assert rep.ok


def test_structural_negative_control_four_cusps():
    g = KatoGraph(
        CTX7,
        (GraphVertex("v", dihedral(6)),),
        (),
        tuple(GraphCusp(f"c{i}", "v", cyclic(2)) for i in range(4)),
        (),
    )
    rep = structural_check(g)
    assert rep.incident_violations


def test_structural_detects_nongenerating_pattern():
    ctx = FieldContext(2, 2, 2)
    g = KatoGraph(
        ctx,
        (GraphVertex("a", elementary(2)), GraphVertex("b", elementary(2)),
         GraphVertex("w", elementary(1))),
        (GraphEdge("e0", ("a", "w"), elementary(1)), GraphEdge("e1", ("w", "b"), elementary(1))),
        (GraphCusp("c0", "w", elementary(1)),),
        (),
    )
    rep = structural_check(g)
    assert any("whitelist" in v for v in rep.generation_violations)


def test_structural_flags_vertices_without_matching_incidences():
    # A trivial vertex carrying a cusp, and a non-trivial vertex with nothing incident.
    g = KatoGraph(
        CTX7,
        (GraphVertex("t", TRIVIAL), GraphVertex("v", dihedral(3))),
        (),
        (GraphCusp("c0", "t", cyclic(2)),),
        (),
    )
    assert structural_check(g).generation_violations == (
        "vertex t: trivial stabilizer with non-trivial incidences",
        "vertex v: stabilizer D3 with no incident groups",
    )
    # B(1,2) has order 2p = 14 at p = 7, so A5 does not contain it.
    a5 = KatoGraph(
        FieldContext(7, 7, 2),
        (GraphVertex("v", ICOSAHEDRAL),),
        (),
        (GraphCusp("c0", "v", borel(1, 2)),),
        (),
    )
    assert structural_check(a5).generation_violations == (
        "vertex v: incident stabilizer B(1,2) is not contained in A5",
    )


def test_structural_lcm_violation():
    g = KatoGraph(
        CTX7,
        (GraphVertex("v", cyclic(4)),),
        (),
        (GraphCusp("c0", "v", cyclic(4)), GraphCusp("c1", "v", cyclic(4)),
         ),
        (),
    )
    assert structural_check(g).ok
    bad = KatoGraph(
        CTX7,
        (GraphVertex("v", dihedral(4)),),
        (),
        (GraphCusp("c0", "v", cyclic(2)), GraphCusp("c1", "v", cyclic(2)),
         GraphCusp("c2", "v", cyclic(3))),
        (),
    )
    rep = structural_check(bad)
    assert not rep.ok


def test_structural_check_reads_the_catalog_that_realized_the_graph():
    # The D15 vertices glue by the extension's tree; the built-in catalog has none.
    raw, cat = parse_spec(FIXTURES / "d15_chain_k5.json")
    assert structural_check(realize(check_input(raw, cat))).ok


def test_structural_vertex_group_without_a_tree_matches_no_pattern():
    # A hand-built graph gets the built-in catalog, which has no D15 tree at p = 5.
    cusps = (cyclic(2), cyclic(2), cyclic(15))
    g = KatoGraph(
        CTX5,
        (GraphVertex("v", dihedral(15)),),
        (),
        tuple(GraphCusp(f"c{i}", "v", s) for i, s in enumerate(cusps)),
        (),
    )
    assert structural_check(g).generation_violations == (
        "vertex v: incident pattern ['C15', 'C2', 'C2'] is not on the whitelist for D15",
    )


# -- separation plan ----------------------------------------------------------------------


def test_separation_triangle():
    _, g = triangle_graph()
    plan = separation_plan(g)
    sizes = sorted(c.size for c in plan.clusters)
    assert sizes == [1, 2]
    assert len(plan.distances) == 1
    assert plan.distances[0][2] == 1


def test_separation_single_dihedral_triplet():
    raw = InputGraphOfGroups(CTX7, (InputVertex("a", dihedral(6)),))
    g = realize(check_input(raw))
    plan = separation_plan(g)
    assert [c.size for c in plan.clusters] == [3]


def test_separation_schottky_empty():
    raw = InputGraphOfGroups(FieldContext(2, 2, 1), (InputVertex("a", TRIVIAL),))
    g = realize(check_input(raw))
    plan = separation_plan(g)
    assert plan.clusters == () and plan.distances == ()


def test_separation_omits_cross_component_distances():
    # Two disconnected cyclic vertices: clusters exist in both components,
    # but no tree path joins their anchors.
    raw = InputGraphOfGroups(
        CTX7, (InputVertex("a", cyclic(3)), InputVertex("b", cyclic(4)))
    )
    g = realize(check_input(raw))
    plan = separation_plan(g)
    assert len(plan.clusters) == 2
    assert plan.distances == ()


def test_separation_partitions_on_random_sample():
    rng = random.Random(4242)
    for _ in range(150):
        raw = random_input(rng)
        g = realize(check_input(raw))
        plan = separation_plan(g)
        members = [b for c in plan.clusters for b in c.members]
        assert sorted(members) == sorted(c.id for c in g.cusps)
        assert all(c.size in (1, 2, 3) for c in plan.clusters)


def test_genus_independence_of_counts():
    base = InputGraphOfGroups(
        CTX5,
        (InputVertex("a", ICOSAHEDRAL), InputVertex("d", dihedral(10))),
        (InputEdge("e0", ("a", "d"), dihedral(5)),),
    )
    from katograph.graphs import GenusEdge

    looped = InputGraphOfGroups(
        CTX5, base.vertices, base.edges,
        (GenusEdge("g0", ("a", "d")), GenusEdge("g1", ("d", "d"))),
    )
    g0 = realize(check_input(base))
    g1 = realize(check_input(looped))
    assert count_cusps_direct(g0) == count_cusps_direct(g1)
    assert cusp_count_general(check_input(base)) == cusp_count_general(check_input(looped))
    assert cusp_count_char0(census(g0)) == cusp_count_char0(census(g1))

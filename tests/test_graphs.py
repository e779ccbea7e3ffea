import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import reference
from inputs import d15_entry, document

from katograph.analysis import cusp_count_general
from katograph.catalog import DEFAULT_CATALOG, Catalog
from katograph.fuzz import random_input
from katograph.graphs import (
    GenusEdge,
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    RealizeError,
    _UnionFind,
    betti,
    check_input,
    genus,
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


# -- union-find ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_union_find_and_betti_match_a_search(data):
    # Random multigraphs: a drawn pair may be a self-loop or repeat an edge, and a
    # vertex in no pair is isolated. A find after each union exercises path halving.
    ids = st.text(alphabet="ab:", min_size=1, max_size=3)
    vertices = data.draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    end = st.sampled_from(vertices)
    pairs = data.draw(st.lists(st.tuples(end, end), max_size=12))
    uf = _UnionFind()
    for a, b in pairs:
        uf.union(a, b)
        uf.find(data.draw(end))
    classes = reference.components(vertices, pairs)
    for members in classes:
        assert {uf.find(v) for v in members} == {min(members)}
    # Only the ids merged into another are stored; every other id is its own root.
    assert set(uf.parent) == set(vertices) - {min(members) for members in classes}
    assert betti(pairs) == len(pairs) - len(vertices) + len(classes)


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


_D6_PAIR = (InputVertex("a", dihedral(6)), InputVertex("b", dihedral(6)))
_C6_EDGE = InputEdge("e0", ("a", "b"), cyclic(6))


@pytest.mark.parametrize(
    "raw, violations",
    [
        (
            InputGraphOfGroups(CTX7, (InputVertex("a", cyclic(3)), InputVertex("a", cyclic(3)))),
            ["vertex a: duplicate id"],
        ),
        (InputGraphOfGroups(CTX7, _D6_PAIR, (_C6_EDGE, _C6_EDGE)), ["edge e0: duplicate id"]),
        (
            InputGraphOfGroups(CTX7, _D6_PAIR, (InputEdge("e0", ("a", "a"), cyclic(6)),)),
            ["edge e0: self-loops must be genus edges"],
        ),
        (
            InputGraphOfGroups(CTX7, _D6_PAIR, (InputEdge("e0", ("a", "b"), None),)),
            ["edge e0: no group given and derive not requested"],
        ),
        (
            InputGraphOfGroups(
                FieldContext(7, 7, 1), _D6_PAIR, (InputEdge("e0", ("a", "b"), cyclic(7)),)
            ),
            ["edge e0: C7: order must be prime to p=7"],
        ),
        (
            InputGraphOfGroups(CTX7, _D6_PAIR, (InputEdge("e0", ("a", "b"), dihedral(3)),)),
            ["edge e0: edge group not Borel/cyclic/printed (D3 has no gluing data in this context)"],
        ),
        (
            InputGraphOfGroups(
                CTX7, _D6_PAIR, (_C6_EDGE,), (GenusEdge("g0", ("a", "b")),) * 2
            ),
            ["genus edge g0: duplicate id"],
        ),
        (
            InputGraphOfGroups(CTX7, _D6_PAIR, (_C6_EDGE,), (GenusEdge("e0", ("a", "b")),)),
            ["genus edge e0: duplicate id"],
        ),
        (
            InputGraphOfGroups(
                CTX5,
                triangle_input().vertices + (InputVertex("e:w", cyclic(2)),),
                (InputEdge("e", ("a", "d"), dihedral(5)),),
            ),
            ["realized id e:w:c0 names two vertices or cusps; rename an id"],
        ),
        (
            # The A5 tree's internal edge realizes as a:e0 too; contract keys
            # edges by name and would keep one of the two.
            InputGraphOfGroups(
                CTX5, triangle_input().vertices, triangle_input().edges, (GenusEdge("a:e0", ("a", "d")),)
            ),
            ["realized id a:e0 names two edges; rename an id"],
        ),
    ],
    ids=[
        "duplicate-vertex",
        "duplicate-edge",
        "self-loop",
        "no-group",
        "edge-order-divisible-by-p",
        "char0-edge-without-gluing-data",
        "duplicate-genus-edge",
        "genus-edge-named-like-an-edge",
        "colliding-realized-ids",
        "genus-loop-named-like-a-realized-edge",
    ],
)
def test_validate_lists_each_violation(raw, violations):
    assert validate_input(raw) == violations


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


def test_validate_rejects_ids_and_hints_that_are_not_strings():
    # Only a library caller can build these; the report could not echo them.
    raw = InputGraphOfGroups(
        CTX7,
        (InputVertex(5, cyclic(3)), InputVertex("a", TRIVIAL), InputVertex("b", TRIVIAL)),
        (
            InputEdge("e", ("a", "b"), TRIVIAL, site_hints=(["x"], None)),
            InputEdge("f", (["x"], "a"), TRIVIAL),
        ),
        (GenusEdge(("g",), ("a", "a")), GenusEdge("h", ("a", ["x"]))),
    )
    assert validate_input(raw) == [
        "vertex 5: id must be a string, got int",
        "edge e: site hint must be a string, got list",
        "edge f: end must be a string, got list",
        "genus edge ('g',): id must be a string, got tuple",
        "genus edge h: end must be a string, got list",
    ]
    # Ends and site hints must be pairs; a list of two is one, a string of two is not.
    c3 = cyclic(3)
    paired = InputEdge("l", ["b", "c"], c3)
    raw = InputGraphOfGroups(
        CTX7,
        (InputVertex("a", c3), InputVertex("b", c3), InputVertex("c", c3)),
        (
            InputEdge("e", ("a", "b", "a"), c3),
            InputEdge("f", ("a",), c3),
            InputEdge("s", "ab", c3),
            InputEdge("h", ("a", "b"), c3, site_hints=("c2",)),
            paired,
        ),
        (GenusEdge("g", ("a",)),),
    )
    assert validate_input(raw) == [
        "edge e: ends must be a pair, got tuple of 3",
        "edge f: ends must be a pair, got tuple of 1",
        "edge s: ends must be a pair, got str",
        "edge h: site hints must be a pair, got tuple of 1",
        "genus edge g: ends must be a pair, got tuple of 1",
    ]
    assert validate_input(InputGraphOfGroups(CTX7, raw.vertices, (paired,))) == []
    # Ids make up the report's lines, so they must be printable; the message shows the repr.
    raw = InputGraphOfGroups(
        CTX7,
        (
            InputVertex("a\nagreement: MISMATCH", dihedral(3)),
            InputVertex("a\ud800", TRIVIAL),
            InputVertex("a", TRIVIAL),
            InputVertex("b", TRIVIAL),
        ),
        (InputEdge("e\t", ("a", "b"), TRIVIAL),),
        (GenusEdge("g\x85", ("a", "a")),),
    )
    assert validate_input(raw) == [
        "vertex 'a\\nagreement: MISMATCH': id must be printable",
        "vertex 'a\\ud800': id must be printable",
        "edge 'e\\t': id must be printable",
        "genus edge 'g\\x85': id must be printable",
    ]
    # Groups must be group symbols; an edge group is not derived from a refused one.
    f = InputVertex("f", cyclic(3))
    raw = InputGraphOfGroups(
        CTX7,
        (
            InputVertex("a", "C3"),
            InputVertex("b", 3),
            InputVertex("c", None),
            InputVertex("d", {"kind": "cyclic", "n": 3}),
            f,
        ),
        (
            InputEdge("e", ("a", "f"), None, True),
            InputEdge("h", ("b", "f"), "C3"),
            InputEdge("i", ("c", "f"), {"kind": "cyclic", "n": 3}),
            InputEdge("j", ("d", "f"), 3),
        ),
    )
    assert validate_input(raw) == [
        "vertex a: group must be a group symbol, got str",
        "vertex b: group must be a group symbol, got int",
        "vertex c: group must be a group symbol, got NoneType",
        "vertex d: group must be a group symbol, got dict",
        "edge h: group must be a group symbol, got str",
        "edge i: group must be a group symbol, got dict",
        "edge j: group must be a group symbol, got int",
    ]
    assert validate_input(InputGraphOfGroups(None, (f,))) == [
        "input: ctx must be a field context, got NoneType"
    ]


def test_check_input_pins_every_violation_in_order():
    # One input that breaks every rule of check_input; the list is the order it checks in.
    c3, b12 = cyclic(3), borel(1, 2)
    raw = InputGraphOfGroups(
        CTX5,
        (
            InputVertex(7, c3),
            InputVertex("a", dihedral(5)),
            InputVertex("a", c3),
            InputVertex("b", c3),
            InputVertex("c", b12),
            InputVertex("d", cyclic(5)),
            InputVertex("f", c3),
            InputVertex("g", c3),
            InputVertex("h", c3),
        ),
        (
            InputEdge(3, ("a", "b"), c3),
            InputEdge("e0", ("a", "b"), c3, site_hints=("c0",)),
            InputEdge("e1", ("b", "f"), c3, site_hints=(1, None)),
            InputEdge("e0", ("f", "g"), c3),
            InputEdge("e2", ("a", "b", "f"), c3),
            InputEdge("e3", ("a", 4), c3),
            InputEdge("e4", ("a", "z"), c3),
            InputEdge("e5", ("b", "b"), c3),
            InputEdge("e6", ("a", "f"), b12),
            InputEdge("e7", ("a", "g"), None, True),
            InputEdge("e8", ("g", "h"), None),
            InputEdge("e9", ("h", "c"), b12),
        ),
        (
            GenusEdge("e1", ("a", "a")),
            GenusEdge(("x",), ("a", "a")),
            GenusEdge("g0", ("a",)),
            GenusEdge("g1", ("a", 5)),
            GenusEdge("g2", ("z", "a")),
            GenusEdge("g3", ("a", "b"), cyclic(2)),
            GenusEdge("g4", ("a", "d")),
        ),
    )
    char0 = "B(1,2): Borel/projective-linear symbols do not occur in char 0"
    assert validate_input(raw) == [
        "vertex 7: id must be a string, got int",
        "vertex a: duplicate id",
        f"vertex c: {char0}",
        "vertex d: catalog entry required: C5 at char 0 with residue characteristic 5 "
        "(group order divisible by p; supply an extension catalog entry)",
        "edge 3: id must be a string, got int",
        "edge e0: site hints must be a pair, got tuple of 1",
        "edge e1: site hint must be a string, got int",
        "edge e0: duplicate id",
        "edge e2: ends must be a pair, got tuple of 3",
        "edge e3: end must be a string, got int",
        "edge e4: endpoint does not exist",
        "edge e5: self-loops must be genus edges",
        "edge e6: creates a cycle; cycles must be genus edges",
        f"edge e6: {char0}",
        "edge e7: cannot derive edge group for (D5, C3); specify edge group in input",
        "edge e8: no group given and derive not requested",
        f"edge e9: {char0}",
        "genus edge e1: duplicate id",
        "genus edge ('x',): id must be a string, got tuple",
        "genus edge g0: ends must be a pair, got tuple of 1",
        "genus edge g1: end must be a string, got int",
        "genus edge g2: endpoint does not exist",
        "genus edge g3: genus edges must have trivial stabilizer",
        "genus edge g4: endpoints lie in different components; a genus edge must close a loop",
    ]


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


def test_realize_glues_by_the_traces_check_input_found(monkeypatch):
    checked = check_input(triangle_input())
    lookup = DEFAULT_CATALOG.attachment_traces
    d5 = dihedral(5)
    assert checked.traces == (
        ("e0", (lookup(d5, ICOSAHEDRAL, CTX5), lookup(d5, dihedral(10), CTX5))),
    )
    assert hash(checked) == hash(check_input(triangle_input()))  # the record stays hashable
    graph = realize(checked)
    monkeypatch.setattr(Catalog, "attachment_traces", lambda *args: pytest.fail("looked up"))
    assert realize(checked) == graph


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
    with pytest.raises(RealizeError, match=r"containment: D5 vs B\(4,5\) \(vertices a:v0, b:v0\)$"):
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


def test_realize_fold_at_marked_cusp_puts_a_junction_on_the_line():
    # The C2 edge folds at the marked cusp c0 of the printed D10 tree and
    # plainly at an order-2 cusp of D2: the line passes through the mark e0:w.
    raw = InputGraphOfGroups(
        CTX5,
        (InputVertex("d", dihedral(10)), InputVertex("b", dihedral(2))),
        (InputEdge("e0", ("d", "b"), cyclic(2), site_hints=("c0", None)),),
    )
    g = realize(check_input(raw))
    assert [(v.id, str(v.stabilizer)) for v in g.vertices] == [
        ("b:v0", "D2"),
        ("d:v0", "D10"),
        ("e0:w", "C2"),
    ]
    assert [(e.id, e.ends, str(e.stabilizer)) for e in g.finite_edges] == [
        ("e0:a", ("d:v0", "e0:w"), "C2"),
        ("e0:b", ("e0:w", "b:v0"), "C2"),
    ]
    assert [(c.id, c.base, str(c.stabilizer)) for c in g.cusps] == [
        ("b:c1", "b:v0", "C2"),
        ("b:c2", "b:v0", "C2"),
        ("d:c1", "d:v0", "C2"),
        ("d:c2", "d:v0", "C10"),
    ]
    assert g.notes == ()


@pytest.mark.parametrize("aw, wx", [("e0", "e1"), ("e1", "e0")])
def test_realize_iso_at_an_absorbed_vertex_folds_through_its_cusp(aw, wx):
    # When a-w goes first, it absorbs w into a's tree and merges both cusps of w
    # into a's C3 cusp; w-x then folds through that cusp. Either order gives a's tree.
    raw = InputGraphOfGroups(
        CTX7,
        (InputVertex("a", dihedral(3)), InputVertex("w", cyclic(3)), InputVertex("x", cyclic(3))),
        (
            InputEdge(aw, ("a", "w"), cyclic(3)),
            InputEdge(wx, ("w", "x"), cyclic(3)),
        ),
    )
    g = realize(check_input(raw))
    assert [(v.id, str(v.stabilizer)) for v in g.vertices] == [("a:v0", "D3")]
    assert g.finite_edges == ()
    assert [(c.id, c.base, str(c.stabilizer)) for c in g.cusps] == [
        ("a:c0", "a:v0", "C2"),
        ("a:c1", "a:v0", "C2"),
        ("a:c2", "a:v0", "C3"),
    ]


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


def test_realize_rejects_a5_absorbing_a_borel_off_p3():
    # The iso end B(1,2) merges its anchor onto the A5 vertex. At p = 7,
    # B(1,2) has order 14 and does not sit in A5, so no vertex can carry both.
    raw = InputGraphOfGroups(
        FieldContext(7, 7, 2),
        (InputVertex("a", ICOSAHEDRAL), InputVertex("b", borel(1, 2))),
        (InputEdge("e0", ("a", "b"), cyclic(2)),),
    )
    with pytest.raises(RealizeError, match=r"without containment: A5 vs B\(1,2\)"):
        realize(check_input(raw))


def test_realize_rejects_colliding_realized_ids():
    # Gluing the printed edge e makes the vertex e:w:c0, and cusp c0 of the
    # input vertex e:w has that name too: one of them would vanish.
    raw = InputGraphOfGroups(
        CTX5,
        triangle_input().vertices + (InputVertex("e:w", cyclic(2)),),
        (InputEdge("e", ("a", "d"), dihedral(5)),),
    )
    with pytest.raises(RealizeError, match="realized id e:w:c0 names two vertices or cusps"):
        realize(check_input(raw))


def test_realize_rejects_a_catalog_vertex_named_like_a_gluing_vertex():
    # The fold at the marked cusp of edge e makes the vertex e:w; the extension
    # tree of input vertex e has a vertex w, realized as e:w too. Unchecked, the
    # D15 vertex took the C2 stabilizer and the edge became a loop.
    from katograph.catalog import Catalog, parse_extension

    entry = d15_entry(vertices=[{"id": "w", "group": {"kind": "dihedral", "n": 15}}])
    for c in entry["cusps"]:
        c["base"] = "w"
    c2 = {"kind": "cyclic", "n": 2}
    entry["cusps"][0] |= {"marked_point": {"group": c2}, "fold_on_attach": True}
    raw = InputGraphOfGroups(
        CTX5,
        (InputVertex("e", dihedral(15)), InputVertex("b", dihedral(6))),
        (InputEdge("e", ("e", "b"), cyclic(2), site_hints=("c0", None)),),
    )
    checked = check_input(raw, Catalog(parse_extension(document(entry))))
    with pytest.raises(RealizeError, match="realized id e:w names two vertices or cusps"):
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


def test_realize_takes_the_smallest_of_equivalent_sites():
    # An extension D15 lists its order-2 cusps as c1, c0. The first live trace
    # would fold at a:c1 and leave a:c0; the smallest site, c0, leaves a:c1.
    # So the choice shows in the realized cusps, and select_trace keeps its min.
    from katograph.catalog import parse_extension

    c0, c1, c15 = d15_entry()["cusps"]
    entry = d15_entry(cusps=[c1, c0, c15])
    cat = Catalog(parse_extension(document(entry)))
    raw = InputGraphOfGroups(
        CTX5,
        (InputVertex("a", dihedral(15)), InputVertex("b", dihedral(3))),
        (InputEdge("e0", ("a", "b"), cyclic(2)),),
    )
    g = realize(check_input(raw, cat))
    assert [c.id for c in g.cusps] == ["a:c1", "a:c2", "b:c1", "b:c2"]


def test_realize_deterministic():
    raw = triangle_input(2)
    g1 = realize(check_input(raw))
    g2 = realize(check_input(raw))
    assert g1 == g2


def test_realized_graph_carries_its_catalog():
    # The analyses read the catalog from the graph, so it must be the one that built it.
    cat = Catalog()
    assert realize(check_input(triangle_input(), cat)).catalog is cat
    assert realize(check_input(triangle_input())).catalog is DEFAULT_CATALOG


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


# -- genus ------------------------------------------------------------------


def test_realize_a_long_chain_of_printed_gluings_in_near_linear_time():
    # Each printed D5 gluing checks for an edge between its own two trees only.
    n = 10_000
    vertices, edges = [], []
    for i in range(n):
        a, d = f"a{i:05d}", f"d{i:05d}"
        vertices += [InputVertex(a, ICOSAHEDRAL), InputVertex(d, dihedral(10))]
        edges.append(InputEdge(f"e{i:05d}", (a, d), dihedral(5)))
        if i:
            edges.append(InputEdge(f"t{i:05d}", (f"a{i - 1:05d}", a), TRIVIAL))
    checked = check_input(InputGraphOfGroups(CTX5, tuple(vertices), tuple(edges)))
    start = time.perf_counter()
    g = realize(checked)
    assert time.perf_counter() - start < 10
    assert len(g.vertices) == 2 * n and len(g.finite_edges) == 2 * n - 1
    assert len(g.cusps) == 3 * n


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
        g = realize(checked)
        assert len(g.cusps) == cusp_count_general(checked)
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

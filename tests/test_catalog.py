import pytest

from katograph.catalog import (
    Catalog,
    CatalogError,
    DEFAULT_CATALOG,
    KIND_FOLD,
    KIND_INJECTIVE,
    KIND_ISO,
    parse_extension,
)
from katograph.groups import (
    FieldContext,
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    TRIVIAL,
    borel,
    borel_extends,
    cyclic,
    dihedral,
    elementary,
    is_admissible,
    is_borel_form,
    order,
    pl_invariants,
    proj_linear,
)

CAT = DEFAULT_CATALOG


def admissible_sweep(max_n=50, max_t=4):
    """Every admissible (group, ctx) pair for p in {2,3,5,7}, m <= 4."""
    for p in (2, 3, 5, 7):
        for m in range(1, 5):
            ctx = FieldContext(p, p, m)
            pool = [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
            pool += [cyclic(n) for n in range(2, max_n + 1)]
            pool += [dihedral(n) for n in range(2, max_n + 1)]
            pool += [borel(t, n) for t in range(1, max_t + 1) for n in range(1, max_n + 1)]
            pool += [proj_linear(v, t) for v in ("PGL", "PSL") for t in range(1, max_t + 1)]
            for g in pool:
                if is_admissible(g, ctx):
                    yield g, ctx


def test_char_p_boundary_counts_per_item():
    for g, ctx in admissible_sweep():
        bc = CAT.boundary_count(g, ctx)
        if g.kind == "cyclic":
            assert bc == 2
        elif g.kind == "dihedral":
            assert bc == (2 if ctx.p == 2 else 3)
        elif g.kind == "borel":
            assert bc == (2 if g.n > 1 else 1)
        elif g.kind == "proj_linear":
            assert bc == 2
        elif g.kind == "icosahedral":
            assert bc == (2 if ctx.p == 3 else 3)
        else:
            assert bc == 3


def test_boundary_equals_tree_cusp_count():
    for g, ctx in admissible_sweep():
        tree = CAT.elementary_tree(g, ctx)
        assert len(tree.cusps) == CAT.boundary_count(g, ctx), (g, ctx)


def test_trivial_boundary():
    assert CAT.boundary_count(TRIVIAL, FieldContext(2, 2, 1)) == 0
    tree = CAT.elementary_tree(TRIVIAL, FieldContext(0, 7, 1))
    assert len(tree.vertices) == 1 and not tree.cusps


def test_cusp_stabilizers_admissible_and_dividing():
    for g, ctx in admissible_sweep():
        tree = CAT.elementary_tree(g, ctx)
        go = order(g, ctx)
        for c in tree.cusps:
            assert c.stabilizer != TRIVIAL
            assert is_admissible(c.stabilizer, ctx), (g, ctx, c)
            assert go % order(c.stabilizer, ctx) == 0, (g, ctx, c)
            if c.marked_point is not None:
                assert go % order(c.marked_point, ctx) == 0


def test_borel_form_edges_have_at_most_two_cusps():
    for g, ctx in admissible_sweep():
        if is_borel_form(g):
            assert CAT.boundary_count(g, ctx) <= 2


def test_pl_tree_cusps_match_invariants():
    for p in (2, 3, 5):
        for t in range(1, 5):
            # m must be a multiple of t; use m = t.
            ctx = FieldContext(p, p, t)
            for variant in ("PGL",) if p == 2 else ("PGL", "PSL"):
                g = proj_linear(variant, t)
                if not is_admissible(g, ctx):
                    continue
                inv = pl_invariants(g, ctx)
                tree = CAT.elementary_tree(g, ctx)
                stabs = sorted(str(c.stabilizer) for c in tree.cusps)
                assert sorted([str(cyclic(inv.n_plus)), str(borel(t, inv.n_minus))]) == stabs
                marked = [c for c in tree.cusps if c.marked_point is not None]
                assert len(marked) == 1
                assert marked[0].stabilizer == borel(t, inv.n_minus)
                assert marked[0].fold_on_attach


def test_dihedral_p2_cusp_is_unipotent():
    tree = CAT.elementary_tree(dihedral(7), FieldContext(2, 2, 3))
    stabs = {str(c.stabilizer) for c in tree.cusps}
    assert stabs == {"E1", "C7"}


def test_icosahedral_p3_tree():
    tree = CAT.elementary_tree(ICOSAHEDRAL, FieldContext(3, 3, 2))
    stabs = sorted(str(c.stabilizer) for c in tree.cusps)
    assert stabs == ["B(1,2)", "C5"]


def test_elementary_rank_tree():
    tree = CAT.elementary_tree(borel(2, 1), FieldContext(2, 2, 2))
    assert [str(c.stabilizer) for c in tree.cusps] == ["E2"]


# -- characteristic zero -------------------------------------------------------------


def test_char0_standard_counts():
    ctx = FieldContext(0, 7, 1)
    assert CAT.boundary_count(cyclic(9), ctx) == 2
    assert CAT.boundary_count(dihedral(9), ctx) == 3
    for g in (TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL):
        assert CAT.boundary_count(g, ctx) == 3


def test_char0_k5_printed_d5():
    ctx = FieldContext(0, 5, 1)
    tree = CAT.elementary_tree(dihedral(5), ctx)
    assert tree.printed
    assert [str(c.stabilizer) for c in tree.cusps] == ["C2", "C2", "C5"]
    assert tree.cusps[0].marked_point == cyclic(2)
    assert tree.cusps[0].fold_on_attach


def test_char0_k5_printed_icosahedral_two_vertices():
    ctx = FieldContext(0, 5, 1)
    tree = CAT.elementary_tree(ICOSAHEDRAL, ctx)
    assert tree.printed
    assert [str(v.stabilizer) for v in tree.vertices] == ["A5", "D5"]
    assert len(tree.internal_edges) == 1
    assert tree.internal_edges[0].stabilizer == dihedral(5)
    by_vertex = {}
    for c in tree.cusps:
        by_vertex.setdefault(c.base_vertex, []).append(str(c.stabilizer))
    assert by_vertex == {"v0": ["C3"], "v1": ["C2", "C5"]}


def test_char0_k5_printed_family():
    ctx = FieldContext(0, 5, 1)
    for n in (10, 20, 30):
        tree = CAT.elementary_tree(dihedral(n), ctx)
        assert [str(c.stabilizer) for c in tree.cusps] == ["C2", "C2", f"C{n}"]
    # order prime to 5: the ordinary star shapes
    assert not CAT.elementary_tree(dihedral(6), ctx).printed
    assert not CAT.elementary_tree(TETRAHEDRAL, ctx).printed


def test_char0_k5_missing_entries():
    ctx = FieldContext(0, 5, 1)
    with pytest.raises(CatalogError, match="catalog entry required"):
        CAT.elementary_tree(cyclic(5), ctx)
    with pytest.raises(CatalogError, match="catalog entry required"):
        CAT.elementary_tree(dihedral(15), ctx)
    # boundary_count is still total on char-0 admissible groups
    assert CAT.boundary_count(cyclic(5), ctx) == 2
    assert CAT.boundary_count(dihedral(15), ctx) == 3


def test_char0_k2_needs_entries_for_even_orders():
    ctx = FieldContext(0, 2, 1)
    with pytest.raises(CatalogError):
        CAT.elementary_tree(dihedral(3), ctx)  # order 6 is even
    assert CAT.elementary_tree(cyclic(3), ctx)  # odd order: standard star


# -- attachment traces -----------------------------------------------------------------


def test_trace_fold_at_marked_borel_cusp():
    ctx = FieldContext(2, 2, 2)
    traces = CAT.attachment_traces(borel(2, 3), proj_linear("PGL", 2), ctx)
    assert len(traces) == 1
    t = traces[0]
    assert t.kind == KIND_FOLD and t.fold_at_mark
    tree = CAT.elementary_tree(proj_linear("PGL", 2), ctx)
    assert [c.id for c in tree.cusps if c.marked_point is not None] == [t.site]


def test_trace_iso_into_extending_borel():
    ctx = FieldContext(2, 2, 4)
    traces = CAT.attachment_traces(borel(2, 3), borel(4, 3), ctx)
    assert len(traces) == 1
    assert traces[0].kind == KIND_ISO
    assert traces[0].partner_site is not None


def test_trace_char0_cyclic_fold():
    ctx = FieldContext(0, 7, 1)
    traces = CAT.attachment_traces(cyclic(9), dihedral(9), ctx)
    assert len(traces) == 1
    t = traces[0]
    assert t.kind == KIND_FOLD and not t.fold_at_mark
    site = CAT.elementary_tree(dihedral(9), ctx).cusp(t.site)
    assert site.stabilizer == cyclic(9)


def test_trace_injective_for_one_cusped():
    ctx = FieldContext(3, 3, 2)
    traces = CAT.attachment_traces(elementary(2), elementary(2), ctx)
    assert [t.kind for t in traces] == [KIND_INJECTIVE]
    # E_1 attaches to the unipotent cusp of a p=2 dihedral tree
    ctx2 = FieldContext(2, 2, 3)
    traces = CAT.attachment_traces(elementary(1), dihedral(7), ctx2)
    assert [t.kind for t in traces] == [KIND_INJECTIVE]


def test_trace_embed_pair_for_triangle():
    ctx = FieldContext(0, 5, 1)
    into_a5 = CAT.attachment_traces(dihedral(5), ICOSAHEDRAL, ctx)
    into_d10 = CAT.attachment_traces(dihedral(5), dihedral(10), ctx)
    assert [t.kind for t in into_a5] == [KIND_FOLD]
    assert [t.kind for t in into_d10] == [KIND_ISO]
    assert into_a5[0].embed is not None and into_d10[0].embed is not None


def test_trace_none_for_unrelated():
    ctx = FieldContext(2, 2, 4)
    assert CAT.attachment_traces(borel(2, 3), dihedral(5), ctx) == ()
    assert CAT.attachment_traces(cyclic(3), elementary(2), ctx) == ()


def test_trace_invariants():
    ctx = FieldContext(2, 2, 4)
    cases = [
        (borel(2, 3), proj_linear("PGL", 2), FieldContext(2, 2, 2)),
        (borel(2, 3), borel(4, 3), ctx),
        (cyclic(3), TETRAHEDRAL, FieldContext(7, 7, 1)),
        (elementary(1), dihedral(7), FieldContext(2, 2, 3)),
        (cyclic(9), dihedral(9), FieldContext(0, 7, 1)),
    ]
    for e, v, c in cases:
        target_tree = CAT.elementary_tree(v, c)
        for t in CAT.attachment_traces(e, v, c):
            if t.kind == KIND_FOLD:
                site = target_tree.cusp(t.site)
                assert t.fold_at_mark == (site.marked_point is not None and site.fold_on_attach)
            else:
                assert not t.fold_at_mark
            if t.kind == KIND_ISO:
                # The edge tree's two cusps land on partner_site and site.
                edge_tree = CAT.elementary_tree(e, c)
                assert len(edge_tree.cusps) == len(target_tree.cusps) == 2
                for ce, site_id in zip(edge_tree.cusps, (t.partner_site, t.site)):
                    d_stab = target_tree.cusp(site_id).stabilizer
                    assert ce.stabilizer == d_stab or borel_extends(ce.stabilizer, d_stab)


def matches_or_extends(edge_tree, vertex_tree):
    for cv in vertex_tree.cusps:
        for ce in edge_tree.cusps:
            if cv.stabilizer == ce.stabilizer or borel_extends(ce.stabilizer, cv.stabilizer):
                return True
    return False


def test_trace_existence_symmetry():
    # A trace exists iff some vertex-tree cusp matches or borel-extends an
    # edge-tree cusp (restricted to Borel-form edge groups in char p).
    import itertools

    ctx = FieldContext(3, 3, 2)
    edge_pool = [cyclic(2), cyclic(4), borel(1, 2), borel(2, 4), elementary(1), elementary(2)]
    vertex_pool = [
        cyclic(2), cyclic(4), dihedral(4), dihedral(5), borel(2, 4), elementary(2),
        proj_linear("PGL", 1), proj_linear("PSL", 1), proj_linear("PGL", 2), ICOSAHEDRAL,
    ]
    for e, v in itertools.product(edge_pool, vertex_pool):
        if not (is_admissible(e, ctx) and is_admissible(v, ctx)):
            continue
        traces = CAT.attachment_traces(e, v, ctx)
        has_match = matches_or_extends(CAT.elementary_tree(e, ctx), CAT.elementary_tree(v, ctx))
        if traces:
            assert has_match, (e, v)


# -- extension files -------------------------------------------------------------------


def d15_entry():
    return {
        "entries": [
            {
                "group": {"kind": "dihedral", "n": 15},
                "context": {"char_K": 0, "p": 5},
                "vertices": [{"id": "v0", "group": {"kind": "dihedral", "n": 15}}],
                "internal_edges": [],
                "cusps": [
                    {"id": "c0", "base": "v0", "group": {"kind": "cyclic", "n": 2}},
                    {"id": "c1", "base": "v0", "group": {"kind": "cyclic", "n": 2}},
                    {"id": "c2", "base": "v0", "group": {"kind": "cyclic", "n": 15}},
                ],
            }
        ]
    }


def test_extension_entry_loads_and_serves():
    entries = parse_extension(d15_entry())
    cat = Catalog(entries)
    ctx = FieldContext(0, 5, 1)
    tree = cat.elementary_tree(dihedral(15), ctx)
    assert [str(c.stabilizer) for c in tree.cusps] == ["C2", "C2", "C15"]
    traces = cat.attachment_traces(cyclic(15), dihedral(15), ctx)
    assert [t.kind for t in traces] == [KIND_FOLD]
    # built-ins unaffected
    assert cat.elementary_tree(dihedral(5), ctx).printed


def test_extension_rejects_bad_cusp_count():
    doc = d15_entry()
    doc["entries"][0]["cusps"] = doc["entries"][0]["cusps"][:2]
    with pytest.raises(CatalogError, match="3 cusps"):
        parse_extension(doc)


def test_extension_rejects_trivial_cusp():
    doc = d15_entry()
    doc["entries"][0]["cusps"][0]["group"] = {"kind": "trivial"}
    with pytest.raises(CatalogError, match="trivial"):
        parse_extension(doc)


def test_extension_rejects_non_tree():
    doc = d15_entry()
    doc["entries"][0]["vertices"].append({"id": "v1", "group": {"kind": "cyclic", "n": 3}})
    with pytest.raises(CatalogError, match="tree"):
        parse_extension(doc)


def test_extension_rejects_nondividing_cusp():
    doc = d15_entry()
    doc["entries"][0]["cusps"][2]["group"] = {"kind": "cyclic", "n": 7}
    with pytest.raises(CatalogError, match="divide"):
        parse_extension(doc)


def d15_marked_entry_with_embed():
    """A D15 instance shaped like the printed D_{10m} trees, with gluing data
    for the D5 edge tree."""
    doc = d15_entry()
    entry = doc["entries"][0]
    entry["cusps"][0]["marked_point"] = {"group": {"kind": "cyclic", "n": 2}}
    entry["cusps"][0]["fold_on_attach"] = True
    entry["embed_traces"] = [
        {
            "edge_group": {"kind": "dihedral", "n": 5},
            "kind": "iso",
            "vertex_map": {"v0": "v0"},
            "cusp_map": {"c1": "c1", "c2": "c2"},
            "mark_map": {"c0": ["mark", "c0"]},
        }
    ]
    return doc


def test_extension_embed_trace_glues_against_builtin():
    from katograph.graphs import InputEdge, InputGraphOfGroups, InputVertex, check_input, realize

    cat = Catalog(parse_extension(d15_marked_entry_with_embed()))
    ctx = FieldContext(0, 5, 1)
    traces = cat.attachment_traces(dihedral(5), dihedral(15), ctx)
    assert [t.kind for t in traces] == [KIND_ISO]
    raw = InputGraphOfGroups(
        ctx,
        (InputVertex("a", ICOSAHEDRAL), InputVertex("d", dihedral(15))),
        (InputEdge("e0", ("a", "d"), dihedral(5)),),
    )
    g = realize(check_input(raw, cat))
    assert sorted(str(v.stabilizer) for v in g.vertices) == ["A5", "D15"]
    assert sorted(str(c.stabilizer) for c in g.cusps) == ["C15", "C2", "C3"]
    assert len(g.finite_edges) == 1 and g.finite_edges[0].stabilizer == dihedral(5)

from pathlib import Path

import pytest

from katograph.catalog import (
    Catalog,
    CatalogError,
    DEFAULT_CATALOG,
    KIND_FOLD,
    KIND_INJECTIVE,
    KIND_ISO,
    _trace_error,
    load_extension_file,
    parse_extension,
)
from katograph.groups import (
    ContextError,
    FieldContext,
    GroupSymbol,
    SymbolError,
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
from inputs import (
    a5_entry,
    c5_entry,
    d3_entry,
    d7_entry,
    d10_entry,
    d10_marked_entry,
    d15_entry,
    document,
)

CAT = DEFAULT_CATALOG
FIXTURES = Path(__file__).parent.parent / "fixtures"


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


def test_char0_boundary_count_rejects_what_char0_cannot_hold():
    # The count is read from the rule, not a tree, so the rule checks the symbol first.
    with pytest.raises(ContextError) as info:
        Catalog().boundary_count(borel(1, 2), FieldContext(0, 5, 1))
    assert str(info.value) == "B(1,2): Borel/projective-linear symbols do not occur in char 0"


def test_char0_k2_needs_entries_for_even_orders():
    ctx = FieldContext(0, 2, 1)
    with pytest.raises(CatalogError):
        CAT.elementary_tree(dihedral(3), ctx)  # order 6 is even
    assert CAT.elementary_tree(cyclic(3), ctx)  # odd order: standard star


# -- the tree table ---------------------------------------------------------------------


def test_tree_table_returns_the_same_tree():
    cat = Catalog()
    ctx = FieldContext(3, 3, 2)
    tree = cat.elementary_tree(proj_linear("PGL", 1), ctx)
    assert cat.elementary_tree(proj_linear("PGL", 1), ctx) is tree
    assert cat.elementary_tree(proj_linear("PGL", 1), FieldContext(3, 3, 2)) is tree
    assert cat.elementary_tree(proj_linear("PGL", 2), ctx) is not tree


def test_tree_table_keeps_no_errors():
    cat = Catalog()
    for _ in range(2):
        with pytest.raises(CatalogError, match="catalog entry required"):
            cat.elementary_tree(dihedral(15), FieldContext(0, 5, 1))
        with pytest.raises(ContextError):
            cat.elementary_tree(TETRAHEDRAL, FieldContext(3, 3, 1))


def test_tree_lookups_name_what_is_missing():
    tree = CAT.elementary_tree(dihedral(5), FieldContext(0, 5, 1))
    assert tree.cusp("c2").stabilizer == cyclic(5)
    with pytest.raises(KeyError, match="c9"):
        tree.cusp("c9")
    # Only a hand-built symbol has an unknown kind, and str() of it fails, so the
    # message names the kind.
    with pytest.raises(ContextError) as info:
        CAT.elementary_tree(GroupSymbol("x"), FieldContext(0, 7, 1))
    assert str(info.value) == "unknown group kind 'x'"


@pytest.mark.parametrize("extended_first", [False, True], ids=["plain-first", "extended-first"])
def test_tree_tables_are_per_catalog(extended_first):
    ctx = FieldContext(0, 5, 1)
    plain, extended = Catalog(), Catalog(parse_extension(document(d15_entry())))
    for cat in (extended, plain) if extended_first else (plain, extended):
        if cat is plain:
            with pytest.raises(CatalogError, match="catalog entry required"):
                cat.elementary_tree(dihedral(15), ctx)
        else:
            assert cat.elementary_tree(dihedral(15), ctx).printed
    assert plain.elementary_tree(dihedral(5), ctx) is not extended.elementary_tree(dihedral(5), ctx)


def test_trace_table_returns_the_same_traces():
    cat = Catalog()
    ctx = FieldContext(2, 2, 2)
    traces = cat.attachment_traces(borel(2, 3), proj_linear("PGL", 2), ctx)
    assert cat.attachment_traces(borel(2, 3), proj_linear("PGL", 2), ctx) is traces
    assert cat.attachment_traces(borel(2, 3), proj_linear("PGL", 2), FieldContext(2, 2, 2)) is traces
    assert cat.attachment_traces(borel(2, 3), borel(2, 3), ctx) is not traces


def test_trace_table_keeps_no_errors():
    cat = Catalog()
    for _ in range(2):
        with pytest.raises(ContextError, match="A4 is not admissible"):
            cat.attachment_traces(cyclic(2), TETRAHEDRAL, FieldContext(3, 3, 1))
        with pytest.raises(SymbolError, match="trivial edges do not attach"):
            cat.attachment_traces(TRIVIAL, dihedral(3), FieldContext(0, 7, 1))
        with pytest.raises(CatalogError, match="edge group not Borel/cyclic/printed"):
            cat.attachment_traces(dihedral(3), dihedral(3), FieldContext(2, 2, 1))


@pytest.mark.parametrize("extended_first", [False, True], ids=["plain-first", "extended-first"])
def test_trace_tables_are_per_catalog(extended_first):
    # C2 glues into D15 at p = 5 only where an entry gives the D15 tree.
    ctx = FieldContext(0, 5, 1)
    plain, extended = Catalog(), Catalog(parse_extension(document(d15_entry())))
    for cat in (extended, plain) if extended_first else (plain, extended):
        if cat is plain:
            with pytest.raises(CatalogError, match="catalog entry required"):
                cat.attachment_traces(cyclic(2), dihedral(15), ctx)
        else:
            traces = cat.attachment_traces(cyclic(2), dihedral(15), ctx)
            assert [(t.site, t.kind) for t in traces] == [("c0", KIND_FOLD), ("c1", KIND_FOLD)]
    c2_into_d5 = plain.attachment_traces(cyclic(2), dihedral(5), ctx)
    assert c2_into_d5 == extended.attachment_traces(cyclic(2), dihedral(5), ctx)
    assert c2_into_d5 is not extended.attachment_traces(cyclic(2), dihedral(5), ctx)


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


def test_every_builtin_trace_keeps_the_printed_trace_rules():
    # The trace table checks each trace against both trees; the built-in ones pass.
    ctx = FieldContext(0, 5, 1)
    edge_tree = CAT.elementary_tree(dihedral(5), ctx)
    for g in (dihedral(5), dihedral(10), dihedral(20), dihedral(30), ICOSAHEDRAL):
        traces = CAT.attachment_traces(dihedral(5), g, ctx)
        tree = CAT.elementary_tree(g, ctx)
        assert [_trace_error(edge_tree, t, tree, ctx) for t in traces] == [None], g


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


def test_extension_entry_loads_and_serves():
    entries = parse_extension(document(d15_entry()))
    cat = Catalog(entries)
    ctx = FieldContext(0, 5, 1)
    tree = cat.elementary_tree(dihedral(15), ctx)
    assert [str(c.stabilizer) for c in tree.cusps] == ["C2", "C2", "C15"]
    traces = cat.attachment_traces(cyclic(15), dihedral(15), ctx)
    assert [t.kind for t in traces] == [KIND_FOLD]
    # built-ins unaffected
    assert cat.elementary_tree(dihedral(5), ctx).printed


# D7 at p = 7 has p > 5; the row never-read pins D3 at p = 5, prime to |D3| = 6.
@pytest.mark.parametrize("entry, n, p", [(d7_entry(), 7, 7)], ids=["D7-at-7"])
def test_extension_rejects_an_entry_the_catalog_never_reads(entry, n, p):
    with pytest.raises(CatalogError) as info:
        parse_extension(document(entry))
    assert str(info.value) == (
        f"<extension>: entries[0]: entry for D{n} at p={p} is never read "
        "(needs p <= 5 dividing its order)"
    )


def test_extension_fixture_loads():
    entries = load_extension_file(FIXTURES / "extension_d15_k5.json")
    assert [(e.tree.group, e.p) for e in entries] == [(dihedral(15), 5)]


def d15_marked_entry_with_embed():
    """A D15 instance shaped like the printed D_{10m} trees, with gluing data
    for the D5 edge tree."""
    entry = d15_entry(
        embed_traces=[
            {
                "edge_group": {"kind": "dihedral", "n": 5},
                "kind": "iso",
                "vertex_map": {"v0": "v0"},
                "cusp_map": {"c1": "c1", "c2": "c2"},
                "mark_map": {"c0": ["mark", "c0"]},
            }
        ]
    )
    c2 = {"kind": "cyclic", "n": 2}
    entry["cusps"][0] |= {"marked_point": {"group": c2}, "fold_on_attach": True}
    return document(entry)


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


def test_extension_replaces_a_builtin_tree():
    ctx = FieldContext(0, 5, 1)
    tree = Catalog(parse_extension(document(d10_entry()))).elementary_tree(dihedral(10), ctx)
    assert tree.printed
    assert [c.marked_point for c in tree.cusps] == [None, None, None]
    assert CAT.elementary_tree(dihedral(10), ctx).cusps[0].marked_point == cyclic(2)


def test_extension_without_traces_admits_no_gluing():
    # The built-in D5 trace into D10 names the built-in tree's marked cusp;
    # the entry that replaces the tree gives every gluing into it.
    ctx = FieldContext(0, 5, 1)
    cat = Catalog(parse_extension(document(d10_entry())))
    assert cat.attachment_traces(dihedral(5), dihedral(10), ctx) == ()
    assert [t.kind for t in CAT.attachment_traces(dihedral(5), dihedral(10), ctx)] == [KIND_ISO]


_D5 = {"kind": "dihedral", "n": 5}
_FOLD_D5 = {
    "edge_group": _D5,
    "kind": "fold",
    "vertex_map": {"v0": "v0"},
    "cusp_map": {"c1": "c1", "c2": "c2"},
    "mark_map": {"c0": ["vertex", "v0"]},
}


def test_extension_traces_replace_the_builtin_traces():
    ctx = FieldContext(0, 5, 1)
    cat = Catalog(parse_extension(document(_d10_fold_onto_v1())))
    traces = cat.attachment_traces(dihedral(5), dihedral(10), ctx)
    assert [(t.kind, t.site) for t in traces] == [(KIND_FOLD, "c1")]
    assert traces[0].embed.mark_map == (("c0", ("vertex", "v0")),)


def test_extension_trace_of_a_cyclic_edge_group_fails_at_load():
    # C5 has a printed tree here, but a cyclic edge group glues by its star
    # tree, so the catalog never reads its embed traces.
    d10 = d10_entry(embed_traces=[dict(_FOLD_D5, edge_group={"kind": "cyclic", "n": 5})])
    with pytest.raises(CatalogError) as info:
        Catalog(parse_extension(document(d10, c5_entry())))
    assert str(info.value) == (
        "entry for D10 at p=5: fold trace of C5 into D10: a cyclic edge group glues by its star tree"
    )


@pytest.mark.parametrize("value", [0, None, ["c"]], ids=["number", "null", "list"])
@pytest.mark.parametrize("where", ["vertex-id", "cusp-map-value"])
def test_extension_rejects_ids_that_are_not_strings(where, value):
    # Ids pass through as given: 0 must not load as '0', nor null as 'None'.
    doc = d15_marked_entry_with_embed()
    entry = doc["entries"][0]
    if where == "vertex-id":
        entry["vertices"][0]["id"] = value
    else:
        entry["embed_traces"][0]["cusp_map"]["c2"] = value
    with pytest.raises(CatalogError) as info:
        parse_extension(doc)
    kind = type(value).__name__
    assert str(info.value) == f"<extension>: entries[0]: id {value!r} must be a string, got {kind}"


_B12 = {"kind": "borel", "t": 1, "n": 2}
_D10 = {"kind": "dihedral", "n": 10}


def _d10_cusp(i, **changes):
    entry = d10_entry()
    entry["cusps"][i].update(changes)
    return entry


def _d10_edges(*changes, vertices=("v1",)):
    """d10_entry with D5 ``vertices`` beside v0 and one internal edge per change of the
    D5 edge e0 from v0 to v1."""
    return d10_entry(
        vertices=[{"id": "v0", "group": _D10}] + [{"id": v, "group": _D5} for v in vertices],
        internal_edges=[dict(id="e0", ends=["v0", "v1"], group=_D5) | c for c in changes],
    )


def _d10_trace(**changes):
    return d10_entry(embed_traces=[dict(_FOLD_D5, **changes)])


def _d10_fold_onto_v1(**changes):
    """A two-vertex D10, shaped like the A5 tree, with a fold of the D5 edge tree onto v1
    whose mark covers the edge v1 -- v0. It loads as it is."""
    return _d10_edges({}) | {"embed_traces": [dict(_FOLD_D5, vertex_map={"v0": "v1"}) | changes]}


def _d10_without(key):
    entry = d10_entry()
    del entry[key]
    return entry


def _entry(entry, message, id):
    """A row of the entry table: ``entry`` breaks the rule of ``message``."""
    return pytest.param(document(entry), f"entries[0]: {message}", id=id)


# Each entry breaks one rule, so its message is the same in any order of checks.
@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(
            {}, "extension document needs a top-level 'entries' list", id="entries-missing"
        ),
        pytest.param({"entries": 5}, "entries must be a list, got int", id="entries-not-a-list"),
        _entry(
            d10_entry(context={"char_K": 5, "p": 5}), "extension entries are char-0 instances",
            id="char-p",
        ),
        _entry(
            _d10_trace(kind="injective"), "embed trace kind must be fold or iso", id="trace-kind"
        ),
        _entry(
            d10_entry(group=_B12), "B(1,2) is not admissible at char 0, p=5",
            id="group-inadmissible",
        ),
        _entry(
            d10_entry(vertices=[]), "vertex ids must be unique and non-empty", id="no-vertices"
        ),
        _entry(_d10_cusp(1, id="c0"), "duplicate cusp id c0", id="duplicate-cusp-id"),
        _entry(
            _d10_cusp(0, base="v9"), "cusp c0 references unknown vertex", id="cusp-base-unknown"
        ),
        _entry(
            _d10_cusp(0, group=_B12), "cusp stabilizer B(1,2) inadmissible",
            id="cusp-group-inadmissible",
        ),
        _entry(
            _d10_cusp(0, marked_point={"group": {"kind": "cyclic", "n": 3}}),
            "marked point stabilizer must contain the cusp stabilizer on c0",
            id="mark-not-containing",
        ),
        _entry(
            d10_entry(vertices=[{"id": "v0", "group": _B12}]),
            "vertex stabilizer B(1,2) inadmissible",
            id="vertex-inadmissible",
        ),
        _entry(
            d10_entry(group=None), "group description must be a symbol or a mapping, got None",
            id="group-null",
        ),
        _entry(d10_entry(context={"char_K": 0}), "missing key 'p'", id="no-p"),
        _entry(_d10_without("vertices"), "missing key 'vertices'", id="no-vertices-key"),
        _entry(
            d10_entry(context=[5]), "context must be an object, got list",
            id="context-a-list",
        ),
        _entry(
            d10_entry(vertices={"v0": _D10}), "vertices must be a list, got dict",
            id="vertices-not-a-list",
        ),
        _entry(
            d10_entry(vertices=[["v0", _D10]]), "vertices[0] must be an object, got list",
            id="vertex-a-list",
        ),
        _entry(
            d10_entry(cusps=[5] + d10_entry()["cusps"][1:]),
            "cusps[0] must be an object, got int",
            id="cusp-a-number",
        ),
        _entry(
            _d10_cusp(0, marked_point=5), "marked_point must be an object, got int",
            id="marked-point-a-number",
        ),
        _entry(
            d10_entry(internal_edges=[5]), "internal_edges[0] must be an object, got int",
            id="internal-edge-a-number",
        ),
        _entry(
            d10_entry(embed_traces=[5]), "embed_traces[0] must be an object, got int",
            id="embed-trace-a-number",
        ),
        _entry(
            _d10_trace(cusp_map=[["c1", "c1"], ["c2", "c2"]]),
            "cusp_map must be an object, got list",
            id="cusp-map-a-list",
        ),
        _entry(
            d10_entry(context={"char_K": 0, "p": 4}), "residue characteristic 4 is not prime",
            id="p-not-prime",
        ),
        _entry(
            d10_entry(context={"char_K": 0.0, "p": 5}), "char_K must be an integer, got float",
            id="char-K-float",
        ),
        _entry(
            d10_entry(context={"char_K": 0, "p": 5.5}), "p must be an integer, got float",
            id="p-float",
        ),
        _entry(
            d3_entry(), "entry for D3 at p=5 is never read (needs p <= 5 dividing its order)",
            id="never-read",
        ),
        _entry(
            d10_entry(vertices=[{"id": 0, "group": _D10}]), "id 0 must be a string, got int",
            id="vertex-id-number",
        ),
        _entry(
            d10_entry(vertices=[{"id": "v\ud800", "group": _D10}]),
            "id 'v\\ud800' must be printable",
            id="vertex-id-unprintable",
        ),
        _entry(
            d10_entry(vertices=[{"id": "v0", "group": _D10}] * 2),
            "vertex ids must be unique and non-empty",
            id="duplicate-vertex-id",
        ),
        _entry(
            _d10_edges({"id": None}), "id None must be a string, got NoneType", id="edge-id-null"
        ),
        _entry(
            _d10_edges({"id": "e\x00"}), "id 'e\\x00' must be printable",
            id="edge-id-unprintable",
        ),
        _entry(
            _d10_edges({"ends": ["v0"]}), "edge e0: ends must be a pair, got list of 1",
            id="edge-ends-not-a-pair",
        ),
        # A third name is not dropped, nor is a string read as its first two letters.
        _entry(
            _d10_edges({"ends": ["v0", "v1", "v9"]}), "edge e0: ends must be a pair, got list of 3",
            id="edge-ends-three-names",
        ),
        _entry(
            _d10_edges({"ends": "v0v1"}), "edge e0: ends must be a pair, got str",
            id="edge-ends-a-string",
        ),
        _entry(
            _d10_edges({"ends": ["v0", 1]}), "id 1 must be a string, got int",
            id="edge-end-number",
        ),
        _entry(
            _d10_edges({"ends": ["v0", "v9"]}), "edge e0 references unknown vertex",
            id="edge-end-unknown",
        ),
        _entry(
            _d10_edges({"group": _B12}), "edge e0: stabilizer B(1,2) inadmissible",
            id="edge-group-inadmissible",
        ),
        _entry(
            _d10_edges({"group": {"kind": "cyclic", "n": 10}}),
            "edge e0: stabilizer C10 not contained in D5",
            id="edge-group-in-one-end",
        ),
        _entry(
            _d10_edges({}, {"ends": ["v0", "v2"]}, vertices=("v1", "v2")),
            "internal edge ids must be unique",
            id="duplicate-edge-id",
        ),
        _entry(
            _d10_edges({}, vertices=("v1", "v2")), "underlying graph is not a tree",
            id="too-few-edges",
        ),
        _entry(
            _d10_edges({}, {"id": "e1"}, vertices=("v1", "v2")),
            "underlying graph is not connected",
            id="disconnected",
        ),
        _entry(
            d10_entry(cusps=d10_entry()["cusps"][:2]),
            "char-0 entry for D10 must have 3 cusps, got 2",
            id="two-cusps",
        ),
        _entry(
            _d10_cusp(0, id=None), "id None must be a string, got NoneType", id="cusp-id-null"
        ),
        _entry(
            _d10_cusp(2, id="c\n2 forged"), "id 'c\\n2 forged' must be printable",
            id="cusp-id-unprintable",
        ),
        _entry(
            _d10_cusp(0, base=0), "id 0 must be a string, got int", id="cusp-base-number"
        ),
        _entry(
            _d10_cusp(0, group={"kind": "trivial"}), "cusp c0 has trivial stabilizer",
            id="cusp-trivial",
        ),
        _entry(
            _d10_cusp(2, group={"kind": "cyclic", "n": 7}),
            "cusp stabilizer C7 order does not divide |D10|",
            id="cusp-order-not-dividing",
        ),
        _entry(
            _d10_cusp(0, fold_on_attach="true"), "fold_on_attach must be true or false, got str",
            id="fold-on-attach-string",
        ),
        _entry(
            d10_entry(cusps=None), "cusps must be a list, got NoneType", id="cusps-null"
        ),
        _entry(
            _d10_trace(vertex_map={"v0": 0}), "id 0 must be a string, got int",
            id="vertex-map-number",
        ),
        _entry(
            _d10_trace(cusp_map={"c1": "c1", "c2": "c\n2"}), "id 'c\\n2' must be printable",
            id="cusp-map-unprintable",
        ),
        _entry(
            _d10_trace(mark_map={"c0": [5, "v0"]}), "id 5 must be a string, got int",
            id="mark-map-kind-number",
        ),
        _entry(
            _d10_trace(mark_map={"c0": ["vertex"]}),
            "mark_map c0 must be a pair, got list of 1",
            id="mark-map-not-a-pair",
        ),
        _entry(
            _d10_trace(mark_map={"c0": "mark"}), "mark_map c0 must be a pair, got str",
            id="mark-map-value-a-string",
        ),
        _entry(
            _d10_trace(edge_group={"kind": "cyclic", "n": 0}),
            "cyclic order must be positive, got 0",
            id="edge-group-bad",
        ),
    ],
)
def test_extension_pins_each_entry_rejection(doc, message):
    with pytest.raises(CatalogError) as info:
        parse_extension(doc)
    assert str(info.value) == f"<extension>: {message}"


def _marks_on_one_site():
    """An extension D5 with two marked cusps, and a D10 with one marked cusp whose iso
    trace of D5 sends both marks onto it: only one mark can use a site up."""
    c2 = {"kind": "cyclic", "n": 2}
    mark = {"marked_point": {"group": c2}, "fold_on_attach": True}
    trace = dict(
        _FOLD_D5, kind="iso", cusp_map={"c2": "c2"},
        mark_map={"c0": ["mark", "c0"], "c1": ["mark", "c0"]},
    )
    d5_cusps = [{"id": f"c{i}", "base": "v0", "group": c2, **mark} for i in (0, 1)]
    d5_cusps.append({"id": "c2", "base": "v0", "group": {"kind": "cyclic", "n": 5}})
    d5 = d10_entry(group=_D5, vertices=[{"id": "v0", "group": _D5}], cusps=d5_cusps)
    return document(d10_marked_entry(embed_traces=[trace]), d5)


# Each trace breaks one printed-trace rule; the catalog checks it when it is built.
@pytest.mark.parametrize(
    "doc, message",
    [
        (
            document(_d10_trace()),
            "fold trace of D5 into D10: the marks must land on neighbours of v0",
        ),
        (
            document(_d10_fold_onto_v1(mark_map={"c0": ["vertex", "v1"]})),
            "fold trace of D5 into D10: the marks must land on neighbours of v1",
        ),
        (
            document(_d10_fold_onto_v1(vertex_map={"v0": "v1", "v1": "v0"})),
            "fold trace of D5 into D10: the vertex map must send exactly v0 to a vertex",
        ),
        (
            document(_d10_fold_onto_v1(cusp_map={"c0": "c0", "c1": "c1", "c2": "c2"})),
            "fold trace of D5 into D10: the cusp map must send exactly ['c1', 'c2'] onto cusps",
        ),
        (
            document(_d10_fold_onto_v1(cusp_map={"c1": "c1", "c2": "c2", "zz": "c1"})),
            "fold trace of D5 into D10: the cusp map must send exactly ['c1', 'c2'] onto cusps",
        ),
        (
            document(_d10_fold_onto_v1(cusp_map={"c1": "c9", "c2": "c2"})),
            "fold trace of D5 into D10: the cusp map must send exactly ['c1', 'c2'] onto cusps",
        ),
        (
            document(_d10_fold_onto_v1(edge_group={"kind": "dihedral", "n": 15})),
            "edge group not Borel/cyclic/printed (D15 has no gluing data in this context)",
        ),
        (
            document(_d10_fold_onto_v1(edge_group=_B12)),
            "edge group not Borel/cyclic/printed (B(1,2) has no gluing data in this context)",
        ),
        (
            document(_d10_fold_onto_v1(cusp_map={"c1": "c2", "c2": "c1"})),
            "fold trace of D5 into D10: the image c1 of cusp c2 must contain its stabilizer C5",
        ),
        (
            document(_d10_fold_onto_v1(cusp_map={"c1": "c2", "c2": "c2"})),
            "fold trace of D5 into D10: the cusp map must be one to one",
        ),
        (
            document(_d10_fold_onto_v1(mark_map={"c0": ["vertex", "v0"], "zz": ["vertex", "v0"]})),
            "fold trace of D5 into D10: the mark map must send exactly ['c0']",
        ),
        (
            document(_d10_fold_onto_v1(edge_group={"kind": "icosahedral"})),
            "fold trace of A5 into D10: T*(A5) must have one vertex, not 2",
        ),
        (
            _marks_on_one_site(),
            "iso trace of D5 into D10: the marks must land on distinct marked cusps",
        ),
    ],
    ids=["fold-onto-its-own-vertex", "mark-on-the-fold-image", "stray-vertex-key",
         "marked-cusp-in-cusp-map", "stray-cusp-key", "image-not-a-cusp",
         "edge-group-without-tree", "edge-group-inadmissible", "image-without-the-stabilizer",
         "one-image-twice", "stray-mark-key", "edge-tree-of-two-vertices", "marks-on-one-site"],
)
def test_extension_trace_breaking_a_rule_fails_at_load(doc, message):
    # A fold's mark covers an edge at the vertex it folds onto: the one-vertex D10 of
    # the first row has none, and in the second the mark lands on that vertex itself.
    entries = parse_extension(doc)
    with pytest.raises(CatalogError) as info:
        Catalog(entries)
    assert str(info.value) == f"entry for D10 at p=5: {message}"


def _d15_with_internal_edge(group):
    """A two-vertex D15 at p = 5 whose internal edge joins its D15 and D5 vertices."""
    return d15_entry(
        vertices=[{"id": "v0", "group": {"kind": "dihedral", "n": 15}}, {"id": "v1", "group": _D5}],
        internal_edges=[{"id": "e0", "ends": ["v0", "v1"], "group": group}],
    )


@pytest.mark.parametrize(
    "group, message",
    [
        ({"kind": "icosahedral"}, "edge e0: stabilizer A5 not contained in D15"),
        ({"kind": "dihedral", "n": 3}, "edge e0: stabilizer D3 not contained in D5"),
        (_B12, "edge e0: stabilizer B(1,2) inadmissible"),
    ],
    ids=["in-neither-end", "in-one-end", "inadmissible"],
)
def test_extension_rejects_an_internal_edge_its_ends_cannot_hold(group, message):
    # The A5 edge loaded, and the realized graph failed the structural check
    # (exit 1) as if the mathematics disagreed.
    with pytest.raises(CatalogError) as info:
        parse_extension(document(_d15_with_internal_edge(group)))
    assert str(info.value) == f"<extension>: entries[0]: {message}"


def test_extension_shaped_like_the_builtin_a5_tree_loads():
    # Its D5 edge lies in both ends' groups, A5 and D5, so the edge check passes it.
    (loaded,) = parse_extension(document(a5_entry()))
    builtin = CAT.elementary_tree(ICOSAHEDRAL, FieldContext(0, 5, 1))
    assert loaded.tree.vertices == builtin.vertices and loaded.tree.cusps == builtin.cusps
    assert [e.stabilizer for e in loaded.tree.internal_edges] == [dihedral(5)]


def test_extension_rejects_two_entries_for_one_group():
    entries = parse_extension(document(d10_entry()))
    with pytest.raises(CatalogError, match="duplicate extension entry for D10 at p=5"):
        Catalog(entries + entries)

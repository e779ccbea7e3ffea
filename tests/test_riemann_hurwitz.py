"""The Riemann–Hurwitz identity as an oracle on the realized branch groups.

For an input Γ with c components and a realized Kato graph of genus g,

    Σ_v 1/|G_v| − Σ_e 1/|G_e| − #genus edges
        = c − g − ½ Σ_cusps ((|G_c| − 1) + (|P_c| − 1)) / |G_c|,

where the sums on the left run over the input's vertices and edges (trivial
edges too), and P_c is the p-part of a cusp stabilizer: p^t for B(t, n) in
characteristic p, and 1 otherwise. The left side is χ(Γ), read from the input
alone; the right side reads each cusp's stabilizer from the realized graph.
Every quantity is a ``Fraction``, so the comparison is exact.

The cusp-count formulas check only how many cusps there are; this identity
also checks which groups they carry. ROADMAP item 8 records where it comes
from and what it still flags.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference
from inputs import TREE_CONTEXTS, golden_corpus, tree_symbols
from katograph.catalog import Catalog, CatalogError, load_extension_file
from katograph.cli import ParseError, build_report, parse_spec
from katograph.fuzz import random_input
from katograph.graphs import (
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    RealizeError,
    ValidationError,
    check_input,
    genus,
    realize,
)
from katograph.groups import (
    OCTAHEDRAL,
    TETRAHEDRAL,
    FieldContext,
    borel,
    borel_params,
    cyclic,
    order,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"


def identity_sides(raw: InputGraphOfGroups, catalog: Catalog) -> tuple[Fraction, Fraction]:
    """(χ(Γ), the right side) for an input that realizes with ``catalog``."""
    checked = check_input(raw, catalog)  # resolves derived edge groups
    graph = realize(checked)
    ctx = raw.ctx
    chi = sum((Fraction(1, order(v.group, ctx)) for v in checked.vertices), Fraction(0))
    chi -= sum((Fraction(1, order(e.group, ctx)) for e in checked.edges), Fraction(0))
    chi -= len(raw.genus_edges)  # genus edges carry the trivial group
    pairs = [e.ends for e in raw.edges + raw.genus_edges]  # components count genus edges too
    right = Fraction(len(reference.components([v.id for v in raw.vertices], pairs)) - genus(graph))
    right -= sum((branch_term(cusp.stabilizer, ctx) for cusp in graph.cusps), Fraction(0))
    return chi, right


def branch_term(stabilizer, ctx: FieldContext) -> Fraction:
    """One cusp's share of the right side, ½ ((|G_c| − 1) + (|P_c| − 1)) / |G_c|."""
    g = order(stabilizer, ctx)
    p_part = ctx.p ** borel_params(stabilizer)[0] if ctx.positive_char else 1
    return Fraction((g - 1) + (p_part - 1), 2 * g)


def tree_sides(tree, ctx: FieldContext) -> tuple[Fraction, Fraction]:
    """The identity for one elementary tree, a graph of one component and genus 0:
    (Σ_tv 1/|G_tv| − Σ_te 1/|G_te|, 1 − the branch terms of its cusps)."""
    left = sum((Fraction(1, order(v.stabilizer, ctx)) for v in tree.vertices), Fraction(0))
    left -= sum((Fraction(1, order(e.stabilizer, ctx)) for e in tree.internal_edges), Fraction(0))
    return left, 1 - sum((branch_term(c.stabilizer, ctx) for c in tree.cusps), Fraction(0))


def holds(raw: InputGraphOfGroups, catalog: Catalog) -> bool:
    chi, right = identity_sides(raw, catalog)
    return chi == right


def test_identity_holds_on_the_acceptance_inputs():
    catalog = Catalog()
    failing = [i for i, raw in enumerate(golden_corpus()) if not holds(raw, catalog)]
    assert failing == []


def test_identity_holds_on_every_fixture_that_realizes_but_the_corrupted_one():
    realized = {}
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            raw, catalog = parse_spec(path)
            realized[path.name] = holds(raw, catalog)
        except (ParseError, ValidationError, RealizeError):
            continue
    assert realized == {
        "borel_p2_t2_s4.json": True,
        "corrupted_e_edge.json": False,
        "d15_chain_k5.json": True,
        "schottky_genus2.json": True,
        "triangle_k5.json": True,
    }


class _S4WithA4Cusps(Catalog):
    """A wrong catalog: S4 gets the cusps of A4, [C2, C3, C3], instead of [C2, C3, C4]."""

    def _star_tree(self, g, ctx):
        tree = super()._star_tree(g, ctx)
        if g == OCTAHEDRAL:
            return tree._replace(cusps=super()._star_tree(TETRAHEDRAL, ctx).cusps)
        return tree


def test_identity_catches_a_wrong_s4_tree():
    # random_input reads DEFAULT_CATALOG's trees, so every input is drawn before
    # the wrong catalog exists, and DEFAULT_CATALOG itself is never touched.
    rng = random.Random(7)
    inputs = [random_input(rng) for _ in range(3000)]
    with_s4 = [raw for raw in inputs if any(v.group == OCTAHEDRAL for v in raw.vertices)]
    assert all(holds(raw, Catalog()) for raw in with_s4)
    wrong = _S4WithA4Cusps()
    realized, rejected = [], 0
    for raw in with_s4:
        try:
            report = build_report(raw, wrong)
        except ValidationError:  # a C4 edge finds no site on the wrong tree
            rejected += 1
            continue
        assert report.passed  # the cusp counts and the structure do not see it
        realized.append(raw)
    assert (len(realized), rejected) == (370, 196)
    assert [raw for raw in realized if holds(raw, wrong)] == []


def test_identity_holds_tree_by_tree():
    catalog = Catalog()
    trees, without_tree, failing = 0, 0, []
    for ctx in TREE_CONTEXTS:
        for g in tree_symbols(ctx):
            try:
                tree = catalog.elementary_tree(g, ctx)
            except CatalogError:  # such as D15 at p = 5, which needs an extension entry
                without_tree += 1
                continue
            trees += 1
            left, right = tree_sides(tree, ctx)
            if left != right:
                failing.append((str(g), ctx))
    assert (len(TREE_CONTEXTS), trees, without_tree, failing) == (21, 948, 78, [])


def test_identity_holds_on_the_extension_fixture_tree():
    ctx = FieldContext(0, 5, 1)
    [entry] = load_extension_file(FIXTURES / "extension_d15_k5.json")
    left, right = tree_sides(Catalog([entry]).elementary_tree(entry.tree.group, ctx), ctx)
    assert left == right == Fraction(1, 30)  # 1/|D15|, and 1 − ½ (1/2 + 1/2 + 14/15)


def test_identity_catches_a_wrong_s4_tree_by_itself():
    # S4 has a star tree wherever it is admissible and p does not divide 24.
    wrong, failing = _S4WithA4Cusps(), 0
    for ctx in TREE_CONTEXTS:
        if OCTAHEDRAL in tree_symbols(ctx) and ctx.p > 3:
            left, right = tree_sides(wrong.elementary_tree(OCTAHEDRAL, ctx), ctx)
            assert left != right, ctx
            failing += 1
    assert failing == 11  # p = 5 and 7 for m = 1 to 4, and char 0 at p = 5, 7 and 11


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 8: a proper iso-iso gluing, C3 between two B(2,3), "
    "realizes with cusps C3 and B(2,3); chi = -1/6 needs two B(2,3) cusps",
)
def test_identity_on_a_proper_iso_iso_edge():
    b23 = borel(2, 3)
    raw = InputGraphOfGroups(
        FieldContext(2, 2, 2),
        (InputVertex("a", b23), InputVertex("b", b23)),
        (InputEdge("e", ("a", "b"), cyclic(3)),),
    )
    catalog = Catalog()
    report = build_report(raw, catalog)
    assert report.passed
    assert sorted(str(c.stabilizer) for c in report.graph.cusps) == ["B(2,3)", "C3"]
    chi, right = identity_sides(raw, catalog)
    assert chi == Fraction(-1, 6)
    assert right == chi

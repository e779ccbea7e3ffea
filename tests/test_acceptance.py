"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time
from pathlib import Path

import pytest

from katograph.analysis import (
    census,
    contract,
    count_cusps_direct,
    cusp_count_char0,
    cusp_count_general,
    is_ordinary,
    separation_plan,
    structural_check,
)
from katograph.catalog import DEFAULT_CATALOG
from katograph.cli import run
from katograph.graphs import (
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
    FieldContext,
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    borel,
    cyclic,
    dihedral,
    is_admissible,
    proj_linear,
)

from concrete import (
    GF,
    alternating_gens,
    borel_perms,
    dihedral_group,
    mulclose,
    pgl2,
    psl2,
    symmetric_gens,
)
from inputs import golden_corpus

FIXTURES = Path(__file__).parent.parent / "fixtures"
CAT = DEFAULT_CATALOG


def verdict(n: int, ok: bool, desc: str):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {n} failed: {desc}"


@pytest.fixture(scope="module")
def corpus():
    """>= 1000 random admissible inputs, generated, validated and realized."""
    t0 = time.perf_counter()
    items = []
    for raw in golden_corpus():
        checked = check_input(raw)
        graph = realize(checked)
        items.append((raw, checked, graph))
    elapsed = time.perf_counter() - t0
    return items, elapsed


# -- criterion 1: catalog conformance ---------------------------------------------------


def test_criterion_1_catalog_conformance():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for p in (2, 3, 5, 7):
        for m in range(1, 5):
            ctx = FieldContext(p, p, m)
            pool = [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
            pool += [cyclic(n) for n in range(2, 51)]
            pool += [dihedral(n) for n in range(2, 51)]
            pool += [borel(t, n) for t in range(1, 5) for n in range(1, 51)]
            pool += [proj_linear(v, t) for v in ("PGL", "PSL") for t in range(1, 5)]
            for g in pool:
                if not is_admissible(g, ctx):
                    continue
                bc = CAT.boundary_count(g, ctx)
                if g.kind == "cyclic":
                    expect = 2
                elif g.kind == "dihedral":
                    expect = 2 if p == 2 else 3
                elif g.kind == "borel":
                    expect = 2 if g.n > 1 else 1
                elif g.kind == "proj_linear":
                    expect = 2
                elif g.kind == "icosahedral":
                    expect = 2 if p == 3 else 3
                else:
                    expect = 3
                ok = ok and bc == expect
                checked += 1
    ctx0 = FieldContext(0, 7, 1)
    for n in range(2, 51):
        ok = ok and CAT.boundary_count(cyclic(n), ctx0) == 2
        ok = ok and CAT.boundary_count(dihedral(n), ctx0) == 3
        checked += 2
    for g in (TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL):
        ok = ok and CAT.boundary_count(g, ctx0) == 3
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    verdict(1, ok, f"boundary counts exact on {checked} admissible entries in {elapsed:.2f}s")


# -- criterion 2: triangle example -------------------------------------------------------


def test_criterion_2_triangle_example():
    ok = True
    for m in (1, 2, 3):
        raw = InputGraphOfGroups(
            FieldContext(0, 5, 1),
            (InputVertex("a", ICOSAHEDRAL), InputVertex("d", dihedral(10 * m))),
            (InputEdge("e0", ("a", "d"), dihedral(5)),),
        )
        checked = check_input(raw)
        g = realize(checked)
        by_group = {str(v.stabilizer): v.id for v in g.vertices}
        ok = ok and set(by_group) == {"A5", f"D{10 * m}"}
        ok = ok and len(g.finite_edges) == 1
        ok = ok and g.finite_edges[0].stabilizer == dihedral(5)
        ok = ok and set(g.finite_edges[0].ends) == set(by_group.values())
        cusps = sorted((str(c.stabilizer), c.base) for c in g.cusps)
        expected = sorted(
            [
                ("C3", by_group["A5"]),
                ("C2", by_group[f"D{10 * m}"]),
                (f"C{10 * m}", by_group[f"D{10 * m}"]),
            ]
        )
        ok = ok and cusps == expected
        direct = count_cusps_direct(g)
        ok = ok and direct == cusp_count_general(checked) == cusp_count_char0(census(g)) == 3
    verdict(2, ok, "A5 -[D5]- D10m realized with cusps {C3@A5, C2@D10m, C10m@D10m}, counts 3=3=3 for m in {1,2,3}")


# -- criterion 3: two-cusp Borel example ---------------------------------------------------


def test_criterion_3_borel_example():
    ok = True
    for p, t, s in ((2, 2, 4), (3, 1, 2), (2, 3, 6)):
        n = p ** t - 1
        m = s  # smallest residue degree containing B(s, n)
        raw = InputGraphOfGroups(
            FieldContext(p, p, m),
            (InputVertex("a", proj_linear("PGL", t)), InputVertex("b", borel(s, n))),
            (InputEdge("e0", ("a", "b"), None, True),),
        )
        checked = check_input(raw)
        ok = ok and checked.edges[0].group == borel(t, n)
        g = realize(checked)
        stabs = sorted(str(c.stabilizer) for c in g.cusps)
        ok = ok and stabs == sorted([f"C{p ** t + 1}", str(borel(s, n))])
        ok = ok and count_cusps_direct(g) == cusp_count_general(checked) == 2
    verdict(3, ok, "derived B(t,n) edge; cusps {C(p^t+1), B(s,n)}; counts 2=2 for the three (p,t,s)")


# -- criterion 4: formula-agreement fuzz ------------------------------------------------------


def test_criterion_4_formula_agreement(corpus):
    items, elapsed = corpus
    ok = len(items) >= 1000
    for raw, checked, g in items:
        direct = count_cusps_direct(g)
        ok = ok and direct == cusp_count_general(checked)
        if not raw.ctx.positive_char:
            ok = ok and direct == cusp_count_char0(census(g))
        if not ok:
            break
    ok = ok and elapsed < 10.0
    verdict(4, ok, f"{len(items)} inputs: direct = general (= char-0 formula) exactly, realized in {elapsed:.1f}s")


# -- criterion 5: structural proposition -------------------------------------------------------


def an_element_of_order(perms, k):
    for g in perms:
        x = g
        o = 1
        n = len(g)
        ident = tuple(range(n))
        while x != ident:
            from concrete import compose

            x = compose(g, x)
            o += 1
            if o > k:
                break
        if o == k:
            return g
    return None


def cyclic_closure(g):
    from concrete import compose

    out = {g}
    x = g
    ident = tuple(range(len(g)))
    while x != ident:
        x = compose(g, x)
        out.add(x)
    return out


def whitelist_brute_force() -> bool:
    """The catalog cusp patterns generate their groups in concrete models."""
    ok = True
    # Dihedral patterns {C2, C2, Cn} / {order-2, Cn}: a reflection plus the
    # full rotation generates D_n.
    for n in range(2, 21):
        dn = dihedral_group(n)
        rot = tuple((i + 1) % n for i in range(n))
        refl = tuple((-i) % n for i in range(n))
        ok = ok and mulclose([rot, refl]) == dn
    # T = A4 from {C2, C3, C3}
    a4 = mulclose(alternating_gens(4))
    two = an_element_of_order(a4, 2)
    threes = [g for g in a4 if len(cyclic_closure(g)) == 3]
    ok = ok and mulclose([two, threes[0], threes[1]]) == a4
    # O = S4 from {C2, C3, C4}
    s4 = mulclose(symmetric_gens(4))
    ok = ok and mulclose(
        [an_element_of_order(s4, 2), an_element_of_order(s4, 3), an_element_of_order(s4, 4)]
    ) == s4
    # I = A5 from {C2, C3, C5}
    a5 = mulclose(alternating_gens(5))
    ok = ok and mulclose(
        [an_element_of_order(a5, 2), an_element_of_order(a5, 3), an_element_of_order(a5, 5)]
    ) == a5
    # I at p=3 from {C5, B(1,2)}: B(1,2) is S3 inside A5.
    s3_in_a5 = mulclose([(1, 2, 0, 3, 4), (1, 0, 2, 4, 3)])
    ok = ok and len(s3_in_a5) == 6
    ok = ok and mulclose(list(s3_in_a5) + [an_element_of_order(a5, 5)]) == a5
    # printed A5 tree: v0 from {C3, D5}, v1 from {C2, C5, D5}
    d5_in_a5 = mulclose([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)])
    ok = ok and len(d5_in_a5) == 10
    ok = ok and mulclose(list(d5_in_a5) + [an_element_of_order(a5, 3)]) == a5
    five = an_element_of_order(a5, 5)
    two5 = an_element_of_order(d5_in_a5, 2)
    ok = ok and mulclose(list(d5_in_a5) + [two5, five]) == a5
    # P(2, p^t) from {C_{n+}, B(t, n-)} for q in {2,3,4,5,7,8,9}
    for p, t in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        q = p ** t
        field = GF(p, t)
        G = pgl2(field)
        bor = borel_perms(field, t, q - 1)
        torus_gen = an_element_of_order(G, q + 1)
        ok = ok and torus_gen is not None
        ok = ok and mulclose(list(bor) + [torus_gen]) == G
        if p != 2:
            H = psl2(field)
            bor_h = borel_perms(field, t, (q - 1) // 2)
            tg = an_element_of_order(H, (q + 1) // 2)
            ok = ok and tg is not None
            ok = ok and mulclose(list(bor_h) + [tg]) == H
    return ok


def test_criterion_5_structural_prop(corpus):
    items, _ = corpus
    ok = True
    for _raw, _checked, g in items:
        rep = structural_check(g)
        ok = ok and rep.ok
        if not ok:
            break
    wl = whitelist_brute_force()
    verdict(
        5,
        ok and wl,
        "valency bound and generation whitelist hold on the corpus; whitelist "
        "verified by brute-force generation in D_n (n<=20), A4, S4, A5, PGL2/PSL2(F_q)",
    )


# -- criterion 6: ordinarity ----------------------------------------------------------------


def test_criterion_6_ordinarity(corpus):
    items, _ = corpus
    ok = True
    n_charp = 0
    for raw, _checked, g in items:
        if raw.ctx.positive_char:
            n_charp += 1
            ok = ok and is_ordinary(g)
    ok = ok and n_charp > 0
    verdict(6, ok, f"all {n_charp} char-p corpus graphs have Borel-type decomposition groups")


# -- criterion 7: separation ---------------------------------------------------------------


def test_criterion_7_separation(corpus):
    items, _ = corpus
    ok = True
    for _raw, _checked, g in items:
        plan = separation_plan(g)
        members = sorted(b for c in plan.clusters for b in c.members)
        ok = ok and members == sorted(c.id for c in g.cusps)
        ok = ok and all(c.size in (1, 2, 3) for c in plan.clusters)
        if not ok:
            break
    raw = InputGraphOfGroups(
        FieldContext(0, 5, 1),
        (InputVertex("a", ICOSAHEDRAL), InputVertex("d", dihedral(10))),
        (InputEdge("e0", ("a", "d"), dihedral(5)),),
    )
    plan = separation_plan(realize(check_input(raw)))
    ok = ok and sorted(c.size for c in plan.clusters) == [1, 2]
    ok = ok and [d for _i, _j, d in plan.distances] == [1]
    verdict(7, ok, "clusters partition branch points with sizes in {1,2,3}; triangle: singlet + pair at distance 1")


# -- criterion 8: contraction ----------------------------------------------------------------


def test_criterion_8_contraction(corpus):
    items, _ = corpus
    ok = True
    for _raw, _checked, g in items:
        sk = contract(g)
        again = contract(KatoGraph(g.ctx, sk.vertices, sk.edges, (), ()))
        ok = ok and again.vertices == sk.vertices and again.edges == sk.edges
        if not ok:
            break
    raw = InputGraphOfGroups(
        FieldContext(0, 5, 1),
        (InputVertex("a", ICOSAHEDRAL), InputVertex("d", dihedral(10))),
        (InputEdge("e0", ("a", "d"), dihedral(5)),),
    )
    sk = contract(realize(check_input(raw)))
    ok = ok and len(sk.vertices) == 2 and len(sk.edges) == 1
    ok = ok and sk.edges[0].stabilizer == dihedral(5)
    # A run exercising the ambiguous valency clause emits the documented warning.
    star = KatoGraph(
        FieldContext(0, 7, 1),
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
    ok = ok and any("valency reading" in w for w in contract(star).warnings)
    verdict(8, ok, "contraction idempotent on the corpus; triangle contracts to the D5 segment; valency ambiguity warned")


# -- criterion 9: CLI determinism -------------------------------------------------------------


def test_criterion_9_cli(tmp_path):
    ok = True
    for name in ("triangle_k5.json", "borel_p2_t2_s4.json", "schottky_genus2.json", "d15_chain_k5.json"):
        t1, c1 = run(FIXTURES / name, out_dir=tmp_path / "r1")
        t2, c2 = run(FIXTURES / name, out_dir=tmp_path / "r2")
        ok = ok and t1 == t2 and c1 == c2 == 0
        for f in ("report.txt", "kato.dot", "skeleton.dot"):
            ok = ok and (tmp_path / "r1" / f).read_bytes() == (tmp_path / "r2" / f).read_bytes()
    _t, c = run(FIXTURES / "triangle_k5.json")
    ok = ok and c == 0
    _t, c = run(FIXTURES / "corrupted_e_edge.json")
    ok = ok and c == 1
    _t, c = run(FIXTURES / "malformed.json")
    ok = ok and c == 2
    verdict(9, ok, "byte-identical reports and DOT across runs; exit codes 0/1/2 on passing/corrupted/malformed fixtures")

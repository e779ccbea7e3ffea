import itertools
import math

import pytest
from hypothesis import given, strategies as st

from katograph.groups import (
    ContextError,
    DeriveError,
    FieldContext,
    GroupSymbol,
    KIND_BOREL,
    KIND_PROJ_LINEAR,
    SymbolError,
    TRIVIAL,
    TETRAHEDRAL,
    OCTAHEDRAL,
    ICOSAHEDRAL,
    borel,
    borel_extends,
    borel_params,
    canonicalize,
    cyclic,
    derive_edge_group,
    dihedral,
    elementary,
    is_admissible,
    order,
    pl_invariants,
    proj_linear,
    symbol_contains,
    validate_in_context,
)

from concrete import GF, borel_perms, pgl2, psl2


# -- canonicalization -----------------------------------------------------------


def test_borel_zero_rank_is_cyclic():
    assert canonicalize({"kind": "borel", "t": 0, "n": 7}) == cyclic(7)


def test_cyclic_one_is_trivial():
    assert canonicalize({"kind": "cyclic", "n": 1}) == TRIVIAL
    assert cyclic(1) == TRIVIAL


def test_borel_already_canonical():
    assert canonicalize({"kind": "borel", "t": 2, "n": 3}) == borel(2, 3)


def test_rejections():
    with pytest.raises(SymbolError):
        dihedral(1)
    with pytest.raises(SymbolError):
        borel(2, 0)
    with pytest.raises(SymbolError):
        proj_linear("PGL", 0)
    with pytest.raises(SymbolError):
        canonicalize({"kind": "nonsense"})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: borel(-1, 2), "Borel rank must be non-negative, got B(-1,2)"),
        (lambda: proj_linear("SL", 1), "projective linear variant must be PGL or PSL, got 'SL'"),
        (lambda: borel_params(dihedral(3)), "D3 is not of Borel form"),
        (
            lambda: pl_invariants(dihedral(3), FieldContext(0, 7)),
            "pl_invariants needs a projective linear symbol, got D3",
        ),
    ],
    ids=[
        "borel-negative-rank", "pl-variant", "borel-params-of-dihedral", "pl-invariants-of-dihedral"
    ],
)
def test_symbol_helpers_pin_each_rejection(build, message):
    with pytest.raises(SymbolError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kind", [["cyclic"], {"kind": "cyclic"}, 3, None, True],
    ids=["list", "object", "number", "null", "bool"],
)
def test_canonicalize_rejects_a_kind_that_is_not_a_string(kind):
    # A list or an object cannot be a table key: it must still be an unknown kind.
    with pytest.raises(SymbolError) as info:
        canonicalize({"kind": kind, "n": 3})
    assert str(info.value) == f"unknown group kind {kind!r}"


raw_symbols = st.one_of(
    st.builds(lambda n: {"kind": "cyclic", "n": n}, st.integers(1, 60)),
    st.builds(lambda n: {"kind": "dihedral", "n": n}, st.integers(2, 60)),
    st.builds(lambda t, n: {"kind": "borel", "t": t, "n": n}, st.integers(0, 6), st.integers(1, 60)),
    st.builds(
        lambda v, t: {"kind": "proj_linear", "variant": v, "t": t},
        st.sampled_from(["PGL", "PSL"]),
        st.integers(1, 5),
    ),
    st.sampled_from(
        [{"kind": "trivial"}, {"kind": "tetrahedral"}, {"kind": "octahedral"}, {"kind": "icosahedral"}]
    ),
)


@given(raw_symbols)
def test_canonicalize_idempotent(raw):
    g = canonicalize(raw)
    assert canonicalize(g) == g


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 2 ** 31), "residue characteristic 2147483648 must be below 2^31"),
        ((0, 9), "residue characteristic 9 is not prime"),
        ((0, 1), "residue characteristic 1 is not prime"),
        ((3, 3, 0), "residue degree m=0 must be >= 1"),
        ((2, 2, 65), "residue field size p^m (p=2, m=65) must be below 2^64"),
        ((0, 65521, 5), "residue field size p^m (p=65521, m=5) must be below 2^64"),
        ((5, 7), "char K must be 0 or p=7, got 5"),
    ],
    ids=[
        "p-too-large", "p-not-prime", "p-one", "m-below-one", "m-too-large", "field-too-large",
        "char-K",
    ],
)
def test_field_context_rejections(args, message):
    with pytest.raises(ContextError) as info:
        FieldContext(*args)
    assert str(info.value) == message


def test_context_prints_through_its_repr():
    # order's message shows the context by its repr; keyword and positional
    # construction give one context.
    ctx = FieldContext(char_K=3, p=3)
    assert ctx == FieldContext(3, 3, 1) and hash(ctx) == hash(FieldContext(3, 3, 1))
    assert repr(ctx) == "FieldContext(char_K=3, p=3, m=1)"
    assert ctx.positive_char and not FieldContext(0, 3).positive_char
    with pytest.raises(ContextError) as info:
        order(cyclic(3), ctx)
    assert str(info.value) == (
        "C3 inadmissible in FieldContext(char_K=3, p=3, m=1): C3: order must be prime to p=3"
    )


def test_symbols_are_equal_however_built():
    for raw, helper, direct in [
        ({"kind": "borel", "t": 2, "n": 3}, borel(2, 3), GroupSymbol(KIND_BOREL, n=3, t=2)),
        ({"kind": "borel", "t": 0, "n": 7}, cyclic(7), GroupSymbol("cyclic", 7)),
        ({"kind": "cyclic", "n": 1}, TRIVIAL, GroupSymbol("trivial")),
        (
            {"kind": "proj_linear", "variant": "PSL", "t": 2},
            proj_linear("PSL", 2),
            GroupSymbol(KIND_PROJ_LINEAR, t=2, variant="PSL"),
        ),
        ({"kind": "icosahedral"}, ICOSAHEDRAL, GroupSymbol("icosahedral", 0, 0, "")),
    ]:
        built = canonicalize(raw)
        assert built == helper == direct
        assert hash(built) == hash(helper) == hash(direct)
        assert len({built, helper, direct}) == 1
    assert repr(borel(2, 3)) == "GroupSymbol(kind='borel', n=3, t=2, variant='')"


# -- orders -----------------------------------------------------------------------


def test_orders_basic():
    ctx = FieldContext(2, 2, 4)
    assert order(borel(2, 3), ctx) == 12
    assert order(elementary(3), ctx) == 8
    ctx5 = FieldContext(5, 5, 2)
    assert order(ICOSAHEDRAL, FieldContext(7, 7, 2)) == 60
    assert order(dihedral(7), FieldContext(2, 2, 3)) == 14
    assert order(TRIVIAL, ctx5) == 1


def test_pgl2_f3_order_against_bruteforce():
    # Independent oracle: enumerate Moebius permutations over F_3.
    ctx = FieldContext(3, 3, 1)
    assert order(proj_linear("PGL", 1), ctx) == len(pgl2(GF(3)))
    assert order(proj_linear("PSL", 1), ctx) == len(psl2(GF(3)))


def test_pgl2_orders_against_bruteforce_more():
    for p, m, t in [(2, 2, 2), (3, 2, 2), (2, 3, 3)]:
        ctx = FieldContext(p, p, m)
        assert order(proj_linear("PGL", t), ctx) == len(pgl2(GF(p, t)))


def test_borel_order_multiplicative():
    for p in (2, 3):
        ctx = FieldContext(p, p, 6)
        for t in range(1, 7):
            for n in range(1, 101):
                g = borel(t, n)
                if is_admissible(g, ctx):
                    assert order(g, ctx) == n * p ** t


def test_order_rejects_inadmissible():
    with pytest.raises(ContextError):
        order(TETRAHEDRAL, FieldContext(3, 3, 2))


# -- admissibility ------------------------------------------------------------------


def expected_admissible(g, ctx):
    """The classification side conditions, restated independently of the engine."""
    p, m = ctx.p, ctx.m
    if g.kind == "trivial":
        return True
    if ctx.char_K == 0:
        return g.kind not in ("borel", "proj_linear")
    if g.kind == "cyclic":
        return math.gcd(g.n, p) == 1
    if g.kind == "dihedral":
        if p == 2:
            return g.n % 2 == 1
        return (p ** m - 1) % g.n == 0 or (p ** m + 1) % g.n == 0
    if g.kind == "borel":
        if g.t > m:
            return False
        if g.n == 1:
            return True
        return (p ** g.t - 1) % g.n == 0 and (p ** m - 1) % g.n == 0
    if g.kind == "proj_linear":
        if m % g.t != 0:
            return False
        return not (g.variant == "PSL" and p == 2)
    if g.kind in ("tetrahedral", "octahedral"):
        return p not in (2, 3)
    if g.kind == "icosahedral":
        return p not in (2, 5) and (p ** (2 * m) - 1) % 5 == 0
    raise AssertionError(g)


def all_symbols(max_n=50, max_t=4):
    out = [TRIVIAL, TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
    out += [cyclic(n) for n in range(2, max_n + 1)]
    out += [dihedral(n) for n in range(2, max_n + 1)]
    out += [borel(t, n) for t in range(1, max_t + 1) for n in range(1, max_n + 1)]
    out += [proj_linear(v, t) for v in ("PGL", "PSL") for t in range(1, max_t + 1)]
    return out


def test_validate_table_driven_exhaustive():
    for p in (2, 3, 5, 7):
        for m in range(1, 5):
            ctx = FieldContext(p, p, m)
            for g in all_symbols():
                assert is_admissible(g, ctx) == expected_admissible(g, ctx), (g, p, m)


def test_validate_char_zero():
    ctx = FieldContext(0, 7, 1)
    for g in all_symbols(max_n=20):
        assert is_admissible(g, ctx) == expected_admissible(g, ctx), g


def test_validate_spec_examples():
    assert is_admissible(dihedral(5), FieldContext(2, 2, 4))
    assert is_admissible(borel(3, 7), FieldContext(2, 2, 3))
    assert not is_admissible(TETRAHEDRAL, FieldContext(3, 3, 1))
    msgs = validate_in_context(TETRAHEDRAL, FieldContext(3, 3, 1))
    assert msgs and "2,3" in msgs[0]
    # canonicalize rejects an unknown kind, so only a symbol built by hand has one.
    for ctx in (FieldContext(0, 7, 1), FieldContext(3, 3, 1)):
        assert is_admissible(GroupSymbol("x"), ctx) is False
        assert validate_in_context(GroupSymbol("x"), ctx) == ("unknown group kind 'x'",)


def test_icosahedral_at_three_needs_even_degree():
    assert not is_admissible(ICOSAHEDRAL, FieldContext(3, 3, 1))
    assert is_admissible(ICOSAHEDRAL, FieldContext(3, 3, 2))


# -- PL invariants ---------------------------------------------------------------------


def test_pl_invariants():
    inv = pl_invariants(proj_linear("PGL", 2), FieldContext(3, 3, 2))
    assert (inv.n_minus, inv.n_plus) == (8, 10)
    inv = pl_invariants(proj_linear("PSL", 1), FieldContext(5, 5, 1))
    assert (inv.n_minus, inv.n_plus) == (2, 3)
    inv = pl_invariants(proj_linear("PGL", 1), FieldContext(2, 2, 1))
    assert (inv.n_minus, inv.n_plus) == (1, 3)


def test_psl_at_two_rejected():
    with pytest.raises(ContextError):
        pl_invariants(proj_linear("PSL", 1), FieldContext(2, 2, 1))
    assert not is_admissible(proj_linear("PSL", 1), FieldContext(2, 2, 2))


# -- borel_extends ------------------------------------------------------------------------


def test_borel_extends_examples():
    assert borel_extends(borel(2, 3), borel(4, 3))
    assert not borel_extends(borel(2, 3), borel(4, 5))
    assert borel_extends(borel(2, 3), borel(2, 3))
    assert borel_extends(cyclic(3), borel(4, 3))
    assert not borel_extends(borel(2, 3), cyclic(3))
    assert not borel_extends(dihedral(3), dihedral(6))


def test_borel_extends_partial_order():
    symbols = [borel(t, n) for t in range(0, 7) for n in range(1, 31)]
    # reflexive
    for a in symbols:
        assert borel_extends(a, a)
    # antisymmetric
    for a in symbols:
        for b in symbols:
            if borel_extends(a, b) and borel_extends(b, a):
                assert a == b
    # transitive (cross-n pairs never extend, so fix n)
    for n in range(1, 31):
        chain = [borel(t, n) for t in range(0, 7)]
        for a in chain:
            for b in chain:
                if not borel_extends(a, b):
                    continue
                for c in chain:
                    if borel_extends(b, c):
                        assert borel_extends(a, c)


# -- derive_edge_group ----------------------------------------------------------------------


def test_derive_pgl_meets_borel():
    ctx = FieldContext(2, 2, 4)
    assert derive_edge_group(proj_linear("PGL", 2), borel(4, 3), ctx) == borel(2, 3)
    assert derive_edge_group(borel(4, 3), proj_linear("PGL", 2), ctx) == borel(2, 3)


def test_derive_borel_pair_against_bruteforce():
    # Oracle: intersect the concrete upper-triangular subgroups over F_27.
    ctx = FieldContext(3, 3, 3)
    derived = derive_edge_group(borel(1, 2), borel(3, 2), ctx)
    assert derived == borel(1, 2)
    f27 = GF(3, 3)
    inter = borel_perms(f27, 1, 2) & borel_perms(f27, 3, 2)
    assert len(inter) == order(derived, ctx)


def test_derive_cyclic_gcd():
    ctx = FieldContext(0, 7, 1)
    assert derive_edge_group(cyclic(6), cyclic(4), ctx) == cyclic(2)
    assert derive_edge_group(cyclic(3), cyclic(5), ctx) == TRIVIAL


@given(st.integers(1, 400), st.integers(1, 400))
def test_derive_cyclic_is_gcd(n, m):
    ctx = FieldContext(0, 7, 1)
    got = derive_edge_group(cyclic(n), cyclic(m), ctx)
    assert got == cyclic(math.gcd(n, m))


def test_derive_unsupported():
    ctx = FieldContext(7, 7, 1)
    with pytest.raises(DeriveError):
        derive_edge_group(TETRAHEDRAL, OCTAHEDRAL, ctx)
    with pytest.raises(DeriveError):
        derive_edge_group(proj_linear("PGL", 1), proj_linear("PGL", 1), ctx)
    # incomparable Borel ranks
    ctx2 = FieldContext(2, 2, 6)
    with pytest.raises(DeriveError):
        derive_edge_group(borel(2, 1), borel(3, 1), ctx2)


def test_derived_order_divides_both():
    cases = [
        (proj_linear("PGL", 2), borel(4, 3), FieldContext(2, 2, 4)),
        (borel(1, 2), borel(3, 2), FieldContext(3, 3, 3)),
        (cyclic(6), cyclic(4), FieldContext(0, 7, 1)),
        (borel(2, 3), borel(4, 3), FieldContext(2, 2, 4)),
    ]
    for gu, gv, ctx in cases:
        g = derive_edge_group(gu, gv, ctx)
        if g == TRIVIAL:
            continue
        assert order(gu, ctx) % order(g, ctx) == 0
        assert order(gv, ctx) % order(g, ctx) == 0


# -- containment ------------------------------------------------------------------------------


def test_symbol_contains_spot_checks():
    ctx = FieldContext(0, 5, 1)
    assert symbol_contains(ICOSAHEDRAL, dihedral(5), ctx)
    assert symbol_contains(dihedral(10), dihedral(5), ctx)
    assert symbol_contains(dihedral(10), cyclic(2), ctx)
    assert not symbol_contains(dihedral(5), ICOSAHEDRAL, ctx)
    ctxp = FieldContext(2, 2, 4)
    assert symbol_contains(borel(4, 3), borel(2, 3), ctxp)
    assert symbol_contains(proj_linear("PGL", 2), borel(2, 3), ctxp)
    assert symbol_contains(dihedral(15), elementary(1), ctxp)
    assert not symbol_contains(borel(4, 3), dihedral(3), ctxp)
    # B(1,2) has order 2p: it sits in A5 at p = 3 only.
    assert symbol_contains(ICOSAHEDRAL, borel(1, 2), FieldContext(3, 3, 2))
    assert not symbol_contains(ICOSAHEDRAL, borel(1, 2), FieldContext(7, 7, 2))


def test_symbol_contains_respects_lagrange():
    # A contained subgroup's order divides the larger order. This is why the lcm
    # rule of Catalog.generation_violation never fires: every incident
    # stabilizer has passed symbol_contains first. The rule stays, because its
    # order call also rejects an inadmissible stabilizer of a hand-built graph.
    family = [TRIVIAL, TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
    family += [cyclic(n) for n in range(2, 31)] + [dihedral(n) for n in range(2, 31)]
    family += [borel(t, n) for t in range(1, 7) for n in range(1, 31)]
    family += [proj_linear(v, t) for v in ("PGL", "PSL") for t in range(1, 7)]
    contexts = [FieldContext(0, p, 1) for p in (2, 3, 5, 7)]
    contexts += [FieldContext(p, p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3, 4, 6)]
    contained = 0
    for ctx in contexts:
        orders = {g: order(g, ctx) for g in family if is_admissible(g, ctx)}
        for large, small in itertools.product(orders, repeat=2):
            if symbol_contains(large, small, ctx):
                contained += 1
                assert orders[large] % orders[small] == 0, (large, small, ctx)
    assert contained == 8036

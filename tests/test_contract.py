"""The quotient-skeleton contraction against its reference, and its cost.

``analysis.contract`` must give exactly what the id-order rescan of
``reference.contract`` gives: the same vertices, edges and genus, and the same
warnings in the same order, each repeated once per pass that reads it.
"""

from __future__ import annotations

import random
import time

import reference
from inputs import golden_corpus
from test_golden import large_unions
from test_invariance import _relabeled

from katograph.analysis import contract
from katograph.graphs import GraphEdge, GraphLoop, GraphVertex, KatoGraph, check_input, realize
from katograph.groups import TRIVIAL, FieldContext, cyclic, dihedral

CTX7 = FieldContext(0, 7, 1)
C2, C4, D2 = cyclic(2), cyclic(4), dihedral(2)


def _graph(vertices, edges, loops=(), ctx=CTX7) -> KatoGraph:
    return KatoGraph(
        ctx,
        tuple(GraphVertex(v, s) for v, s in vertices),
        tuple(GraphEdge(e, (a, b), s) for e, a, b, s in edges),
        (),
        tuple(GraphLoop(l, (a, b)) for l, a, b in loops),
    )


def _shape(sk):
    """The skeleton's vertices, edges and genus as plain tuples."""
    return (
        tuple((v.id, str(v.stabilizer)) for v in sk.vertices),
        tuple((e.id, *e.ends, str(e.stabilizer)) for e in sk.edges),
        sk.genus,
    )


def _valency_warning(eid, survivor, literal, removed, other):
    return (
        f"edge {eid}: contraction decision depends on the valency reading "
        f"(survivor {survivor}: {literal}, removed {removed}: {other}); "
        "the literal reading (survivor) is applied"
    )


TIE_E0 = "edge e0: 'larger group' is ambiguous (C4 vs D2, equal orders); contraction of this edge aborted"


def test_tie_warning_repeats_once_per_pass():
    # e0 never collapses; the C2 path x-y-z takes two collapses, so three
    # passes read e0 and each one warns.
    g = _graph(
        [("a", C4), ("b", D2), ("x", C2), ("y", C2), ("z", C2)],
        [("e0", "a", "b", C4), ("e1", "x", "y", C2), ("e2", "y", "z", C2)],
    )
    sk = contract(g)
    assert sk == reference.contract(g)
    assert _shape(sk) == ((("a", "C4"), ("b", "D2"), ("x", "C2")), (("e0", "a", "b", "C4"),), 0)
    assert sk.warnings == (TIE_E0,) * 3


def test_parallel_edge_becomes_a_self_loop():
    # Collapsing e0 turns its parallel edge e1 into a loop at u, which counts
    # twice: u's valency becomes 3, so e2 is kept.
    g = _graph(
        [("u", C2), ("v", C2), ("w", C2)],
        [("e0", "u", "v", C2), ("e1", "u", "v", TRIVIAL), ("e2", "v", "w", C2)],
    )
    sk = contract(g)
    assert sk == reference.contract(g)
    assert _shape(sk) == (
        (("u", "C2"), ("w", "C2")),
        (("e1", "u", "u", "1"), ("e2", "u", "w", "C2")),
        1,
    )
    assert sk.warnings == (
        _valency_warning("e0", "u", "collapse", "v", "keep"),
        _valency_warning("e2", "u", "keep", "w", "collapse"),
    )


def test_genus_loop_ends_merge():
    g = _graph(
        [("a", TRIVIAL), ("b", TRIVIAL), ("c", TRIVIAL)],
        [("e0", "a", "b", TRIVIAL), ("e1", "b", "c", TRIVIAL)],
        [("g0", "a", "c")],
    )
    sk = contract(g)
    assert sk == reference.contract(g)
    assert _shape(sk) == ((("a", "1"),), (("g0", "a", "a", "1"),), 1)
    assert sk.warnings == ()


def test_collapse_raises_survivor_valency_and_flips_a_warning():
    # Before e0 collapses, e5 would collapse under either reading (s has
    # valency 2, t valency 1). Absorbing r gives s valency 3, so e5 is kept
    # and now warns.
    g = _graph(
        [("s", D2), ("r", C2), ("t", C2), ("x", D2), ("y", D2)],
        [
            ("e0", "s", "r", C2),
            ("e1", "r", "x", TRIVIAL),
            ("e2", "r", "y", TRIVIAL),
            ("e5", "s", "t", C2),
        ],
    )
    sk = contract(g)
    assert sk == reference.contract(g)
    assert _shape(sk) == (
        (("s", "D2"), ("t", "C2"), ("x", "D2"), ("y", "D2")),
        (("e1", "s", "x", "1"), ("e2", "s", "y", "1"), ("e5", "s", "t", "C2")),
        0,
    )
    assert sk.warnings == (
        _valency_warning("e0", "s", "collapse", "r", "keep"),
        _valency_warning("e5", "s", "keep", "t", "collapse"),
    )


def test_contract_equals_reference_on_the_corpus_and_its_relabelings():
    raws = golden_corpus()
    copies = []
    for i, raw in enumerate(raws[:300]):
        shuffle = random.Random(f"contract/{i}")
        copies.append(_relabeled(raw, lambda xs: xs[::-1]))
        copies.append(_relabeled(raw, lambda xs: shuffle.sample(xs, len(xs))))
    for i, raw in enumerate(raws + tuple(copies)):
        g = realize(check_input(raw))
        assert contract(g) == reference.contract(g), i


def test_contract_equals_reference_on_large_unions():
    for i, raw in enumerate(large_unions()):
        g = realize(check_input(raw))
        assert contract(g) == reference.contract(g), i


def test_long_path_contracts_in_near_linear_time():
    # A path of 20 000 C2 vertices joined by C2 edges collapses onto its
    # first vertex, one edge per pass; a rescan after every collapse would
    # take minutes.
    n = 20_000
    g = _graph(
        [(f"v{i:05d}", C2) for i in range(n)],
        [(f"e{i:05d}", f"v{i:05d}", f"v{i + 1:05d}", C2) for i in range(n - 1)],
    )
    start = time.perf_counter()
    sk = contract(g)
    elapsed = time.perf_counter() - start
    assert (sk.vertices, sk.edges, sk.genus, sk.warnings) == ((GraphVertex("v00000", C2),), (), 0, ())
    assert elapsed < 10, elapsed

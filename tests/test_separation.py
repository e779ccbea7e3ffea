"""The separation plan against its breadth-first reference, and its edge cases.

``analysis.separation_plan`` walks each component once and keeps one row of
distances per cluster; ``reference.separation_plan`` searches the whole graph from
every anchor and lists one (i, j, d) triple per pair. On every forest the two must
give the same clusters and the same distances, in the same order. Given the
clusters, the rows and the triples each determine the other.
"""

from __future__ import annotations

import random

import pytest
import reference
from inputs import golden_corpus
from test_golden import large_unions

from katograph.analysis import Cluster, SeparationPlan, separation_plan
from katograph.catalog import DEFAULT_CATALOG
from katograph.cli import build_report
from katograph.fuzz import random_input
from katograph.graphs import (
    GenusEdge,
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
from katograph.groups import TRIVIAL, FieldContext, cyclic

CTX7 = FieldContext(0, 7, 1)
C2 = cyclic(2)


def _graph(vertices, edges, cusps) -> KatoGraph:
    """Trivial vertices and edges; ``cusps`` are (id, base) pairs."""
    return KatoGraph(
        CTX7,
        tuple(GraphVertex(v, TRIVIAL) for v in vertices),
        tuple(GraphEdge(e, (a, b), TRIVIAL) for e, a, b in edges),
        tuple(GraphCusp(c, base, C2) for c, base in cusps),
        (),
    )


def _chained(rng, ctx, components) -> InputGraphOfGroups:
    """``components`` random components in ``ctx``, their ids prefixed ``c<i>.``,
    the first vertex of each joined to the next one's by a trivial edge."""
    vertices, edges, genus_edges, roots = [], [], [], []
    for i in range(components):
        part, pre = random_input(rng, ctx=ctx), f"c{i}."
        roots.append(pre + part.vertices[0].id)
        vertices += [InputVertex(pre + v.id, v.group) for v in part.vertices]
        edges += [
            InputEdge(pre + e.id, (pre + e.ends[0], pre + e.ends[1]), e.group, e.derive, e.site_hints)
            for e in part.edges
        ]
        genus_edges += [
            GenusEdge(pre + g.id, (pre + g.ends[0], pre + g.ends[1])) for g in part.genus_edges
        ]
    edges += [InputEdge(f"j{k}", ends, TRIVIAL) for k, ends in enumerate(zip(roots, roots[1:]))]
    return InputGraphOfGroups(ctx, tuple(vertices), tuple(edges), tuple(genus_edges))


def test_plan_equals_reference_on_the_corpus():
    for i, raw in enumerate(golden_corpus()):
        g = realize(check_input(raw))
        plan = separation_plan(g)
        assert (plan.clusters, plan.distances) == reference.separation_plan(g), i


def test_plan_equals_reference_on_large_unions():
    for i, raw in enumerate(large_unions()):
        g = realize(check_input(raw))
        plan = separation_plan(g)
        assert (plan.clusters, plan.distances) == reference.separation_plan(g), i


def test_plan_equals_reference_on_chained_unions():
    rng = random.Random(20261019)
    for ctx, components in [(FieldContext(0, 5, 1), 85), (FieldContext(0, 7, 1), 120)] * 2:
        g = realize(check_input(_chained(rng, ctx, components)))
        plan = separation_plan(g)
        assert len(plan.distances) == len(plan.clusters) * (len(plan.clusters) - 1) // 2
        assert (plan.clusters, plan.distances) == reference.separation_plan(g), (ctx, components)


def _chained_graphs():
    """``_chained`` unions of 1 to 120 components, in two contexts."""
    rng = random.Random(20261020)
    for ctx, components in [(FieldContext(0, 5, 1), 1), (FieldContext(0, 7, 1), 2),
                            (FieldContext(0, 5, 1), 17), (FieldContext(0, 5, 1), 85),
                            (FieldContext(0, 7, 1), 120)]:
        yield _chained(rng, ctx, components)


def test_each_row_lists_the_later_clusters_of_its_component():
    for raw in [*golden_corpus(), *_chained_graphs()]:
        g = realize(check_input(raw))
        plan = separation_plan(g)
        parts = reference.components([v.id for v in g.vertices], [e.ends for e in g.finite_edges])
        part = {v: k for k, vs in enumerate(parts) for v in vs}
        home = [part[cl.anchor] for cl in plan.clusters]
        assert len(plan.rows) == len(plan.clusters)
        for i, (later, edges) in enumerate(plan.rows):
            assert later == tuple(j for j in range(i + 1, len(home)) if home[j] == home[i])
            assert len(edges) == len(later)


def test_render_writes_one_line_per_distance():
    # The distance lines are written a row at a time from shared number
    # strings; they must read as if each were formatted on its own.
    for raw in [*golden_corpus(), *_chained_graphs()]:
        report = build_report(raw, DEFAULT_CATALOG)
        plan = report.plan
        section = report.render().split("\n== separation plan ==\n")[1].split("\n\n")[0]
        lines = section.split("\n")[max(1, len(plan.clusters)):]
        assert lines == [f"  distance cluster {i} - cluster {j}: {d}" for i, j, d in plan.distances]


def test_render_writes_distances_beyond_the_graph_size():
    # A hand-built plan may hold any distance, not only those of its graph: beyond the
    # number strings that render keeps for most plans, or even negative.
    report = build_report(golden_corpus()[0], DEFAULT_CATALOG)
    clusters = (Cluster("a", ("c0",)), Cluster("b", ("c1",)), Cluster("c", ("c2",)))
    for rows, lines in (
        ((((1, 2), (10_000, 19_999)), ((2,), (9999,)), ((), ())),
         ["0 - cluster 1: 10000", "0 - cluster 2: 19999", "1 - cluster 2: 9999"]),
        ((((1, 2), (-1, 3)), ((2,), (-1024,)), ((), ())),
         ["0 - cluster 1: -1", "0 - cluster 2: 3", "1 - cluster 2: -1024"]),
    ):
        plan = SeparationPlan(clusters, rows)
        text = report._replace(plan=plan).render()
        assert text.split("\n== separation plan ==\n")[1].split("\n\n")[0].split("\n")[3:] == [
            f"  distance cluster {line}" for line in lines
        ]
    assert plan.distances == ((0, 1, -1), (0, 2, 3), (1, 2, -1024))


def test_plan_skips_a_component_without_anchors():
    g = _graph(
        ["a0", "a1", "a2", "b0", "b1", "z0", "z1", "z2"],
        [("e0", "a0", "a1"), ("e1", "a1", "a2"), ("f0", "b0", "b1"),
         ("g0", "z0", "z1"), ("g1", "z1", "z2")],
        [("c0", "a0"), ("c1", "a2"), ("c2", "a2"), ("c3", "b1")],
    )
    plan = separation_plan(g)
    assert plan.clusters == (
        Cluster("a0", ("c0",)), Cluster("a2", ("c1", "c2")), Cluster("b1", ("c3",))
    )
    assert plan.distances == ((0, 1, 2),)
    assert (plan.clusters, plan.distances) == reference.separation_plan(g)


def test_plan_of_anchors_that_share_no_component():
    g = _graph(["u", "v", "w"], [], [("c0", "w"), ("c1", "u"), ("c2", "v")])
    plan = separation_plan(g)
    assert plan.clusters == (Cluster("u", ("c1",)), Cluster("v", ("c2",)), Cluster("w", ("c0",)))
    assert plan.distances == ()
    assert (plan.clusters, plan.distances) == reference.separation_plan(g)


def test_plan_of_a_single_anchored_vertex():
    g = _graph(["v", "x"], [("e0", "v", "x")], [("c1", "v"), ("c0", "v")])
    plan = separation_plan(g)
    assert plan.clusters == (Cluster("v", ("c0", "c1")),)
    assert plan.distances == ()
    assert (plan.clusters, plan.distances) == reference.separation_plan(g)


def test_plan_on_a_long_path():
    # A recursive walk would overflow the stack here; the ends and the middle
    # are anchors, so the plan has three distances.
    n = 20_000
    g = _graph(
        [f"v{i:05d}" for i in range(n)],
        [(f"e{i:05d}", f"v{i:05d}", f"v{i + 1:05d}") for i in range(n - 1)],
        [("c0", "v00000"), ("c1", "v10000"), ("c2", "v19999")],
    )
    plan = separation_plan(g)
    assert [cl.anchor for cl in plan.clusters] == ["v00000", "v10000", "v19999"]
    assert plan.distances == ((0, 1, 10_000), (0, 2, 19_999), (1, 2, 9999))


@pytest.mark.parametrize(
    "edges",
    [
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a")],
        [("e0", "a", "b"), ("e1", "b", "a"), ("e2", "b", "c")],
    ],
    ids=["triangle", "parallel-edges"],
)
def test_plan_rejects_a_cycle_of_finite_edges(edges):
    g = _graph(["a", "b", "c"], edges, [("c0", "a"), ("c1", "c")])
    with pytest.raises(ValueError, match=r"^finite edge e[012] closes a cycle"):
        separation_plan(g)

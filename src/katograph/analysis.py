"""The theorems as executable checks.

Both cusp-count formulas, the direct-count oracle, branch point extraction,
ordinarity, contraction to the quotient skeleton, the structural vertex
properties, and the branch-point separation plan.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import NamedTuple

from .graphs import CheckedInput, GraphCusp, GraphEdge, GraphVertex, KatoGraph, betti
from .groups import (
    ContextError,
    FieldContext,
    GroupSymbol,
    TRIVIAL,
    borel_params,
    is_borel_form,
    is_cyclic,
    order,
    symbol_contains,  # unused here; the benchmark's tracer wraps it by this module's name
)


class FormulaCensus(NamedTuple):
    """Counts of non-trivial cyclic / non-cyclic vertex and edge stabilizers."""

    C: int
    c: int
    D: int
    d: int


def census(g: KatoGraph) -> FormulaCensus:
    """Count stabilizers over the realized graph; trivial ones count nowhere."""
    C = sum(1 for v in g.vertices if is_cyclic(v.stabilizer))
    D = sum(1 for v in g.vertices if v.stabilizer != TRIVIAL and not is_cyclic(v.stabilizer))
    c = sum(1 for e in g.finite_edges if is_cyclic(e.stabilizer))
    d = sum(
        1 for e in g.finite_edges if e.stabilizer != TRIVIAL and not is_cyclic(e.stabilizer)
    )
    return FormulaCensus(C, c, D, d)


def cusp_count_char0(cs: FormulaCensus) -> int:
    """The characteristic-zero closed form 3(D-d) + 2(C-c)."""
    return 3 * (cs.D - cs.d) + 2 * (cs.C - cs.c)


def cusp_count_general(checked: CheckedInput) -> int:
    """The general closed form: boundary sums over vertices minus edges; a trivial edge adds 0."""
    cat, ctx = checked.catalog, checked.ctx
    total = sum(cat.boundary_count(v.group, ctx) for v in checked.vertices)
    return total - sum(cat.boundary_count(e.group, ctx) for e in checked.edges)


def count_cusps_direct(g: KatoGraph) -> int:
    return len(g.cusps)


def branch_points(g: KatoGraph) -> tuple[GraphCusp, ...]:
    """One branch point per cusp: the cusp stabilizer is its decomposition group,
    and the cusp's base vertex is its anchor. So the branch points are the cusps."""
    return g.cusps


def is_ordinary(g: KatoGraph) -> bool:
    """Every decomposition group of Borel type B(t,n), gcd(n,p)=1, n | p^t - 1.

    Only meaningful in positive characteristic; raises otherwise. Admissibility
    asks the same of every Borel-form symbol, and a cusp of a realized valid input
    carries a non-trivial admissible one, so every such cusp is ordinary:
    ``ordinary: NO`` can come only from a hand-built graph.
    """
    ctx = g.ctx
    if not ctx.positive_char:
        raise ContextError("ordinarity is a characteristic-p notion")
    for c in g.cusps:
        gdec = c.stabilizer
        if not is_borel_form(gdec) or gdec == TRIVIAL:
            return False
        t, n = borel_params(gdec)
        if math.gcd(n, ctx.p) != 1:
            return False
        if t > 0 and n > 1 and (ctx.p ** t - 1) % n != 0:
            return False
    return True


# -- contraction -------------------------------------------------------------------


class QuotientSkeleton(NamedTuple):
    """The stable quotient graph: cusps cut, redundant edges collapsed; ``contract``
    lists each tuple by id."""

    ctx: FieldContext
    vertices: tuple[GraphVertex, ...]
    edges: tuple[GraphEdge, ...]
    genus: int
    warnings: tuple[str, ...] = ()


def contract(g: KatoGraph) -> QuotientSkeleton:
    """Cut the cusps, then collapse edges equal to an endpoint stabilizer.

    Each pass collapses the edge of smallest id whose group equals an
    endpoint's and whose survivor, the endpoint with the larger group, has
    valency below three (genus loops included, a self-loop counting twice).
    Equal-order but distinct endpoint groups abort the collapse of that edge;
    a warning records every edge whose fate would differ if the valency of
    the removed endpoint were consulted instead. A pass repeats the warnings
    of the edges it reads, in id order: those up to the one it collapses, or
    all in the last pass. So the output equals an id-order rescan after each
    collapse, and the skeleton can depend on how the input's edges are named.

    Nothing is rescanned: a decision reads only its edge's ends (names,
    groups, valencies), so decisions are cached, and a collapse re-decides
    only the edges at its survivor. One sorted list holds the ids whose
    decision warns or collapses; a pass walks it from the start up to the
    first that collapses, so the walk is bounded by the warnings it emits. A
    re-decision that moves an id into or out of the list costs a bisect plus
    a list insert or delete. Cost: O(E log E) to start, plus those
    re-decisions, plus the warning lines emitted.
    """
    ctx = g.ctx
    stab = {v.id: v.stabilizer for v in g.vertices}
    # Genus loops enter the edge pool as ordinary trivial-stabilizer edges;
    # only actual self-loops are exempt from collapsing.
    edges: dict[str, tuple[str, str, GroupSymbol]] = {
        e.id: (e.ends[0], e.ends[1], e.stabilizer) for e in g.finite_edges
    }
    for l in g.genus_loops:
        edges[l.id] = (l.ends[0], l.ends[1], TRIVIAL)
    # One entry per edge end, so a vertex's valency is its list's length and
    # a self-loop counts twice.
    incident: dict[str, list[str]] = {v: [] for v in stab}
    for eid, (a, b, _) in edges.items():
        incident[a].append(eid)
        incident[b].append(eid)
    warnings: list[str] = []

    def _decide(eid: str) -> tuple[str | None, tuple[str, str] | None]:
        """The edge's warning or None, and (survivor, removed) or None."""
        a, b, s = edges[eid]
        if a == b:
            return None, None
        eq_a, eq_b = s == stab[a], s == stab[b]
        if not (eq_a or eq_b):
            return None, None
        if eq_a and eq_b:
            # Same symbol on both endpoints: no substantive tie; keep the
            # lexicographically smaller vertex.
            survivor, removed = (a, b) if a < b else (b, a)
        else:
            removed, survivor = (a, b) if eq_a else (b, a)
            na = order(stab[survivor], ctx)
            nb = order(stab[removed], ctx)
            if na == nb:
                return (
                    f"edge {eid}: 'larger group' is ambiguous "
                    f"({stab[removed]} vs {stab[survivor]}, equal orders); "
                    "contraction of this edge aborted"
                ), None
        literal = len(incident[survivor]) < 3
        other = len(incident[removed]) < 3
        warning = None if literal == other else (
            f"edge {eid}: contraction decision depends on the valency reading "
            f"(survivor {survivor}: {'collapse' if literal else 'keep'}, "
            f"removed {removed}: {'collapse' if other else 'keep'}); "
            "the literal reading (survivor) is applied"
        )
        return warning, ((survivor, removed) if literal else None)

    decision = {eid: _decide(eid) for eid in sorted(edges)}
    pending = [eid for eid, d in decision.items() if any(d)]  # sorted ids that warn or collapse
    while True:
        for i, eid in enumerate(pending):
            warning, pair = decision[eid]
            if warning is not None:
                warnings.append(warning)
            if pair:
                break
        else:
            break
        del pending[i], decision[eid]
        survivor, removed = pair
        del edges[eid], stab[removed]
        incident[survivor].remove(eid)
        moved = incident.pop(removed)
        moved.remove(eid)
        for f in moved:
            a, b, s = edges[f]
            edges[f] = (survivor if a == removed else a, survivor if b == removed else b, s)
        incident[survivor] += moved
        for f in incident[survivor]:
            was = any(decision[f])
            decision[f] = _decide(f)
            if any(decision[f]) != was:
                if was:
                    del pending[bisect_left(pending, f)]
                else:
                    insort(pending, f)
    vertices = tuple(GraphVertex(v, stab[v]) for v in sorted(stab))
    out_edges = tuple(
        GraphEdge(eid, (edges[eid][0], edges[eid][1]), edges[eid][2]) for eid in sorted(edges)
    )
    b1 = betti([(a, b) for a, b, _ in edges.values()])
    return QuotientSkeleton(ctx, vertices, out_edges, b1, tuple(warnings))


# -- structural properties -----------------------------------------------------------


class StructuralReport(NamedTuple):
    incident_violations: tuple[str, ...]
    generation_violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.incident_violations and not self.generation_violations


def structural_check(g: KatoGraph) -> StructuralReport:
    """The two vertex properties of realized Kato graphs.

    (a) at most three cusps-plus-nontrivial-edges leave any vertex;
    (b) the incident stabilizers generate the vertex group, checked at
    pattern level: either the vertex group itself is incident, or the
    incident multiset matches the catalog pattern of the group (marked cusp
    positions may be upgraded to any containing group), and in all cases the
    lcm of the incident orders divides the vertex order. The rule lives in the
    catalog that realized ``g`` (``Catalog.generation_violation``), which
    reads its own trees as the whitelist and keeps each verdict.
    """
    ctx = g.ctx
    incident: dict[str, list[GroupSymbol]] = {v.id: [] for v in g.vertices}
    for c in g.cusps:
        incident[c.base].append(c.stabilizer)
    for e in g.finite_edges:
        if e.stabilizer == TRIVIAL:
            continue
        for end in e.ends:
            incident[end].append(e.stabilizer)
    bad_a: list[str] = []
    bad_b: list[str] = []
    for v in g.vertices:
        inc = incident[v.id]
        if len(inc) > 3:
            bad_a.append(f"vertex {v.id}: {len(inc)} incident cusps/non-trivial edges (max 3)")
        if err := g.catalog.generation_violation(v.stabilizer, tuple(inc), ctx):
            bad_b.append(f"vertex {v.id}: {err}")
    return StructuralReport(tuple(bad_a), tuple(bad_b))


# -- separation -----------------------------------------------------------------------


class Cluster(NamedTuple):
    anchor: str
    members: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class SeparationPlan(NamedTuple):
    """Branch points clustered by anchor vertex; anchors stand in for the
    generic points of the separating discs.

    ``rows[i]`` is ``(later, edges)``: the later clusters of cluster i's
    component in increasing index order, and the distance to each."""

    clusters: tuple[Cluster, ...]
    rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def distances(self) -> tuple[tuple[int, int, int], ...]:
        """Every (cluster index, later cluster index, edges), row by row."""
        return tuple(
            (i, j, d) for i, (later, edges) in enumerate(self.rows) for j, d in zip(later, edges)
        )


def separation_plan(g: KatoGraph) -> SeparationPlan:
    """Cluster branch points by their anchor and measure anchor distances.

    Distances are edge counts along the finite edges, which must form a forest,
    as ``realize`` guarantees; pairs in distinct components are omitted. Each
    component with an anchor is searched once, depth first, from its first
    anchor; a vertex reached twice raises ``ValueError``. A second pass carries
    one row down the preorder, the distances to the component's anchors less
    the current depth. The anchors under a vertex are a run in preorder; a
    step down takes two off it, climbing back undoes that, and at each anchor
    the row gives its distances to the later clusters. The plan keeps those
    as one row of ints per cluster, and no tuple is built per pair. Cost:
    O(sum of V_c * m_c) over components of V_c vertices and m_c anchors.
    """
    by_anchor: dict[str, list[str]] = {}
    for c in g.cusps:
        by_anchor.setdefault(c.base, []).append(c.id)
    clusters = tuple(
        Cluster(anchor, tuple(sorted(by_anchor[anchor]))) for anchor in sorted(by_anchor)
    )
    if len(clusters) < 2:
        return SeparationPlan(clusters, (((), ()),) * len(clusters))
    adj: dict[str, list[tuple[str, str]]] = {}
    for e in g.finite_edges:
        a, b = e.ends
        adj.setdefault(a, []).append((b, e.id))
        adj.setdefault(b, []).append((a, e.id))
    index = {cl.anchor: i for i, cl in enumerate(clusters)}
    rows: list = [None] * len(clusters)  # per cluster, its later clusters and distances
    for root, first in index.items():
        if rows[first] is not None:
            continue
        parent = {root: (None, None, 0)}  # vertex -> (parent, edge to it, depth)
        lo = {}  # vertex -> the anchors before it; its run is [lo[x], lo[after])
        order = []  # (vertex, the vertex after its subtree, parent, depth, cluster)
        later, row = [], []  # (cluster, row index) and depth of each anchor
        stack = [None, root]
        while (x := stack.pop()) is not None:
            lo[x] = len(row)
            p, up, dx = parent[x]
            i = index.get(x)
            order.append((x, stack[-1], p, dx, i))
            if i is not None:
                later.append((i, len(row)))
                row.append(dx)
            for y, eid in adj.get(x, ()):
                if eid != up:
                    if y in parent:
                        raise ValueError(f"finite edge {eid} closes a cycle; a forest is needed")
                    parent[y] = (x, eid, dx + 1)
                    stack.append(y)
        m = lo[None] = len(row)
        later.sort()
        js, ks = zip(*later)  # the component's clusters in index order, their row positions
        path = [(root, 0, m)]
        for x, after, p, dx, i in order:
            lo_x, hi_x = lo[x], lo[after]
            if lo_x == hi_x:
                continue
            if p is not None:
                while path[-1][0] != p:
                    _, lo_y, hi_y = path.pop()
                    row[lo_y:hi_y] = [d + 2 for d in row[lo_y:hi_y]]
                row[lo_x:hi_x] = [d - 2 for d in row[lo_x:hi_x]]
                path.append((x, lo_x, hi_x))
            if i is not None:
                n = bisect_right(js, i)
                rows[i] = (js[n:], tuple([row[k] + dx for k in ks[n:]]))
    return SeparationPlan(clusters, tuple(rows))

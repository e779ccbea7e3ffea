"""Slow reference implementations used as oracles.

``separation_plan`` is the separation plan as first written: one
breadth-first search over the whole graph from each anchor, with one
(i, j, d) triple per pair of anchors. The engine's ``analysis.separation_plan``
searches each component once instead and keeps one row per cluster; the two
must give the same clusters and distances on every forest.

``contract`` is the quotient-skeleton contraction as first written: after
every collapse it recounts valencies over all edges, renames the removed
vertex in every edge and rescans the edges in ascending id order. It is at
least quadratic, which is why the engine's ``analysis.contract`` keeps a
worklist instead; the two must give the same skeleton, warnings included.

``generation_verdict`` is the structural check's generation rule (b) as
``analysis.structural_check`` applied it before the rule moved into the
catalog, with ``_generation_violation``, ``_whitelist_patterns`` and
``_matches_pattern`` copied verbatim. It recomputes every verdict;
``Catalog.generation_violation`` keeps them, and the two must give the same
message for every vertex.

``components`` is the connected components of a multigraph by breadth-first
search, the oracle of ``graphs._UnionFind`` and ``graphs.betti``.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import permutations

from katograph.analysis import Cluster, QuotientSkeleton
from katograph.catalog import CatalogError
from katograph.graphs import GraphEdge, GraphVertex, KatoGraph, betti
from katograph.groups import TRIVIAL, ContextError, GroupSymbol, order, symbol_contains


def contract(g: KatoGraph) -> QuotientSkeleton:
    """Cut the cusps, then collapse edges equal to an endpoint stabilizer.

    Edges are scanned in ascending id order and collapsed onto the endpoint
    with the larger group when that endpoint's valency (over the remaining
    edges, genus loops included) is below three; the scan iterates to a
    fixpoint. Equal-order but distinct endpoint groups abort the collapse of
    that edge; a warning records every edge whose fate would differ if the
    valency of the removed endpoint were consulted instead. Because of the
    id-order scan, the skeleton can depend on how the input's edges are named.
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
    warnings: list[str] = []

    def valency(v: str) -> int:
        n = 0
        for a, b, _ in edges.values():
            n += (a == v) + (b == v)
        return n

    def substitute(old: str, new: str):
        for eid, (a, b, s) in list(edges.items()):
            edges[eid] = (new if a == old else a, new if b == old else b, s)

    changed = True
    while changed:
        changed = False
        for eid in sorted(edges):
            a, b, s = edges[eid]
            if a == b:
                continue
            eq_a, eq_b = s == stab[a], s == stab[b]
            if not (eq_a or eq_b):
                continue
            if eq_a and eq_b:
                # Same symbol on both endpoints: no substantive tie; keep the
                # lexicographically smaller vertex.
                survivor, removed = (a, b) if a < b else (b, a)
            else:
                removed, survivor = (a, b) if eq_a else (b, a)
                na = order(stab[survivor], ctx)
                nb = order(stab[removed], ctx)
                if na == nb and stab[survivor] != stab[removed]:
                    warnings.append(
                        f"edge {eid}: 'larger group' is ambiguous "
                        f"({stab[removed]} vs {stab[survivor]}, equal orders); "
                        "contraction of this edge aborted"
                    )
                    continue
            literal = valency(survivor) < 3
            other = valency(removed) < 3
            if literal != other:
                warnings.append(
                    f"edge {eid}: contraction decision depends on the valency reading "
                    f"(survivor {survivor}: {'collapse' if literal else 'keep'}, "
                    f"removed {removed}: {'collapse' if other else 'keep'}); "
                    "the literal reading (survivor) is applied"
                )
            if not literal:
                continue
            del edges[eid]
            substitute(removed, survivor)
            del stab[removed]
            changed = True
            break
    vertices = tuple(GraphVertex(v, stab[v]) for v in sorted(stab))
    out_edges = tuple(
        GraphEdge(eid, (edges[eid][0], edges[eid][1]), edges[eid][2]) for eid in sorted(edges)
    )
    b1 = betti([(a, b) for a, b, _ in edges.values()])
    return QuotientSkeleton(ctx, vertices, out_edges, b1, tuple(warnings))


def separation_plan(g: KatoGraph) -> tuple[tuple[Cluster, ...], tuple[tuple[int, int, int], ...]]:
    """Cluster branch points by their anchor and measure anchor distances.

    Distances are edge counts along the forest of finite edges (genus loops
    are never needed while a tree path exists); pairs in distinct components
    are omitted. Returns the clusters and every (cluster index, later cluster
    index, edges), the plan's ``clusters`` and ``distances``.
    """
    by_anchor: dict[str, list[str]] = {}
    for c in g.cusps:
        by_anchor.setdefault(c.base, []).append(c.id)
    clusters = tuple(
        Cluster(anchor, tuple(sorted(by_anchor[anchor]))) for anchor in sorted(by_anchor)
    )
    adj: dict[str, list[str]] = {v.id: [] for v in g.vertices}
    for e in g.finite_edges:
        adj[e.ends[0]].append(e.ends[1])
        adj[e.ends[1]].append(e.ends[0])
    dists = []
    for i in range(len(clusters)):
        reached = _bfs(clusters[i].anchor, adj)
        for j in range(i + 1, len(clusters)):
            d = reached.get(clusters[j].anchor)
            if d is not None:
                dists.append((i, j, d))
    return clusters, tuple(dists)


def components(vertices, edge_pairs) -> list[set[str]]:
    """The vertex sets of the connected components, self-loops and parallel edges allowed."""
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in edge_pairs:
        adj[a].append(b)
        adj[b].append(a)
    out: list[set[str]] = []
    for v in adj:
        if not any(v in seen for seen in out):
            out.append(set(_bfs(v, adj)))
    return out


def _bfs(start: str, adj) -> dict[str, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def generation_verdict(gv, inc, ctx, catalog) -> str | None:
    """The (b) message of a vertex of group ``gv`` with the incident stabilizers
    ``inc``, in the order the structural check collects them, without its
    ``vertex <id>: `` prefix; None when (b) holds there."""
    if gv == TRIVIAL:
        return "trivial stabilizer with non-trivial incidences" if inc else None
    if not inc:
        return f"stabilizer {gv} with no incident groups"
    return _generation_violation(gv, inc, ctx, catalog)


def _generation_violation(gv, inc, ctx, catalog) -> str | None:
    vorder = order(gv, ctx)
    lcm = 1
    for s in inc:
        if not symbol_contains(gv, s, ctx):
            return f"incident stabilizer {s} is not contained in {gv}"
        lcm = math.lcm(lcm, order(s, ctx))
    if vorder % lcm != 0:
        return f"lcm of incident orders {lcm} does not divide |{gv}| = {vorder}"
    if any(s == gv for s in inc):
        return None
    for pattern in _whitelist_patterns(gv, ctx, catalog):
        if _matches_pattern(inc, pattern, ctx):
            return None
    return (
        f"incident pattern {sorted(str(s) for s in inc)} is not on the whitelist for {gv}"
    )


def _whitelist_patterns(gv, ctx, catalog) -> list[list[tuple[GroupSymbol, bool]]]:
    """Per catalog vertex carrying gv: its cusp/internal-edge stabs, marked flagged."""
    try:
        tree = catalog.elementary_tree(gv, ctx)
    except (CatalogError, ContextError):
        return []
    patterns = []
    for tv in tree.vertices:
        if tv.stabilizer != gv:
            continue
        entries: list[tuple[GroupSymbol, bool]] = []
        for c in tree.cusps:
            if c.base_vertex == tv.id:
                entries.append((c.stabilizer, c.marked_point is not None))
        for e in tree.internal_edges:
            if tv.id in e.ends:
                entries.append((e.stabilizer, False))
        patterns.append(entries)
    return patterns


def _matches_pattern(inc, pattern, ctx) -> bool:
    """Whether some order of ``inc`` meets ``pattern`` entry by entry; a marked
    entry also accepts a group containing its stabilizer."""
    return len(inc) == len(pattern) and any(
        all(
            s == stab or (marked and symbol_contains(s, stab, ctx))
            for s, (stab, marked) in zip(order, pattern)
        )
        for order in permutations(inc)
    )

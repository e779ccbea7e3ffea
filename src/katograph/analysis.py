"""The theorems as executable checks.

Both cusp-count formulas, the direct-count oracle, branch point extraction,
ordinarity, contraction to the quotient skeleton, the structural vertex
properties, and the branch-point separation plan.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .catalog import Catalog, CatalogError, DEFAULT_CATALOG
from .graphs import GraphEdge, GraphVertex, KatoGraph, betti, cusp_count_general  # re-exported
from .groups import (
    ContextError,
    FieldContext,
    GroupSymbol,
    TRIVIAL,
    borel_params,
    is_borel_form,
    is_cyclic,
    order,
    symbol_contains,
)


@dataclass(frozen=True)
class FormulaCensus:
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


def count_cusps_direct(g: KatoGraph) -> int:
    return len(g.cusps)


@dataclass(frozen=True)
class BranchPoint:
    id: str
    decomposition_group: GroupSymbol
    anchor: str


@dataclass(frozen=True)
class BranchSignature:
    points: tuple[BranchPoint, ...]


def branch_points(g: KatoGraph) -> BranchSignature:
    """One branch point per cusp; the cusp stabilizer is its decomposition group."""
    return BranchSignature(
        tuple(BranchPoint(c.id, c.stabilizer, c.base) for c in g.cusps)
    )


def is_ordinary(sig: BranchSignature, ctx: FieldContext) -> bool:
    """Every decomposition group of Borel type B(t,n), gcd(n,p)=1, n | p^t - 1.

    Only meaningful in positive characteristic; raises otherwise.
    """
    if not ctx.positive_char:
        raise ContextError("ordinarity is a characteristic-p notion")
    for bp in sig.points:
        gdec = bp.decomposition_group
        if not is_borel_form(gdec) or gdec == TRIVIAL:
            return False
        t, n = borel_params(gdec)
        if math.gcd(n, ctx.p) != 1:
            return False
        if t > 0 and n > 1 and (ctx.p ** t - 1) % n != 0:
            return False
    return True


# -- contraction -------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientSkeleton:
    """The stable quotient graph: cusps cut, redundant edges collapsed."""

    ctx: FieldContext
    vertices: tuple[GraphVertex, ...]
    edges: tuple[GraphEdge, ...]
    genus: int
    warnings: tuple[str, ...] = ()


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
    b1 = betti(stab, [(a, b) for a, b, _ in edges.values()])
    return QuotientSkeleton(ctx, vertices, out_edges, b1, tuple(warnings))


# -- structural properties -----------------------------------------------------------


@dataclass(frozen=True)
class StructuralReport:
    incident_violations: tuple[str, ...]
    generation_violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.incident_violations and not self.generation_violations


def structural_check(g: KatoGraph, catalog: Catalog = DEFAULT_CATALOG) -> StructuralReport:
    """The two vertex properties of realized Kato graphs.

    (a) at most three cusps-plus-nontrivial-edges leave any vertex;
    (b) the incident stabilizers generate the vertex group, checked at
    pattern level: either the vertex group itself is incident, or the
    incident multiset matches the catalog pattern of the group (marked cusp
    positions may be upgraded to any containing group), and in all cases the
    lcm of the incident orders divides the vertex order.
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
            bad_a.append(
                f"vertex {v.id}: {len(inc)} incident cusps/non-trivial edges (max 3)"
            )
        if v.stabilizer == TRIVIAL:
            if inc:
                bad_b.append(f"vertex {v.id}: trivial stabilizer with non-trivial incidences")
            continue
        if not inc:
            bad_b.append(f"vertex {v.id}: stabilizer {v.stabilizer} with no incident groups")
            continue
        err = _generation_violation(v.stabilizer, inc, ctx, catalog)
        if err:
            bad_b.append(f"vertex {v.id}: {err}")
    return StructuralReport(tuple(bad_a), tuple(bad_b))


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
    if len(inc) != len(pattern):
        return False
    return _match_rec(list(inc), list(pattern), ctx)


def _match_rec(inc, pattern, ctx) -> bool:
    if not pattern:
        return not inc
    stab, marked = pattern[0]
    rest = pattern[1:]
    for i, s in enumerate(inc):
        okay = s == stab or (marked and symbol_contains(s, stab, ctx))
        if okay and _match_rec(inc[:i] + inc[i + 1 :], rest, ctx):
            return True
    return False


# -- separation -----------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    anchor: str
    members: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SeparationPlan:
    """Branch points clustered by anchor vertex; anchors stand in for the
    generic points of the separating discs."""

    clusters: tuple[Cluster, ...]
    distances: tuple[tuple[int, int, int], ...]  # (cluster index, cluster index, edges)


def separation_plan(g: KatoGraph) -> SeparationPlan:
    """Cluster branch points by their anchor and measure anchor distances.

    Distances are edge counts along the forest of finite edges (genus loops
    are never needed while a tree path exists); pairs in distinct components
    are omitted.
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
    return SeparationPlan(clusters, tuple(dists))


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

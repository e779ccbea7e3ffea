"""Input graphs of groups, validation, and realization into Kato graphs.

Realization places one elementary tree per input vertex and performs one
gluing step per non-trivial edge, printed gluings first, dispatching on the
pair of attachment trace kinds. Identifiers of the realized graph are derived
deterministically from input ids plus catalog-local ids, so two runs on the
same input produce byte-identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .catalog import (
    AttachmentTrace,
    Catalog,
    CatalogError,
    DEFAULT_CATALOG,
    ElementaryTree,
    KIND_FOLD,
    KIND_INJECTIVE,
    KIND_ISO,
)
from .groups import (
    ContextError,
    DeriveError,
    FieldContext,
    GroupSymbol,
    SymbolError,
    TRIVIAL,
    derive_edge_group,
    is_borel_form,
    is_cyclic,
    symbol_contains,
    validate_in_context,
)


class ValidationError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class RealizeError(ValueError):
    """Raised when a validated input cannot be glued (or an internal check fails)."""


# -- input model ---------------------------------------------------------------


@dataclass(frozen=True)
class InputVertex:
    id: str
    group: GroupSymbol


@dataclass(frozen=True)
class InputEdge:
    id: str
    ends: tuple[str, str]
    group: GroupSymbol | None = None
    derive: bool = False
    site_hints: tuple[str | None, str | None] = (None, None)


@dataclass(frozen=True)
class GenusEdge:
    id: str
    ends: tuple[str, str]
    group: GroupSymbol = TRIVIAL


@dataclass(frozen=True)
class InputGraphOfGroups:
    ctx: FieldContext
    vertices: tuple[InputVertex, ...]
    edges: tuple[InputEdge, ...] = ()
    genus_edges: tuple[GenusEdge, ...] = ()


@dataclass(frozen=True)
class CheckedInput:
    """An input meeting the contract of ``check_input``, edge groups resolved."""

    ctx: FieldContext
    vertices: tuple[InputVertex, ...]
    edges: tuple[InputEdge, ...]
    genus_edges: tuple[GenusEdge, ...]
    catalog: Catalog = DEFAULT_CATALOG


# -- realized model -------------------------------------------------------------


@dataclass(frozen=True)
class GraphVertex:
    id: str
    stabilizer: GroupSymbol


@dataclass(frozen=True)
class GraphEdge:
    id: str
    ends: tuple[str, str]
    stabilizer: GroupSymbol


@dataclass(frozen=True)
class GraphCusp:
    id: str
    base: str
    stabilizer: GroupSymbol


@dataclass(frozen=True)
class GraphLoop:
    id: str
    ends: tuple[str, str]


@dataclass(frozen=True)
class KatoGraph:
    ctx: FieldContext
    vertices: tuple[GraphVertex, ...]
    finite_edges: tuple[GraphEdge, ...]
    cusps: tuple[GraphCusp, ...]
    genus_loops: tuple[GraphLoop, ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class IrreducibleComponent:
    vertices: tuple[str, ...]
    edges: tuple[str, ...]


# -- union-find -----------------------------------------------------------------


class _UnionFind:
    """Path-halving union-find over string ids.

    ``union`` makes the lexicographically smaller root the new root, so each
    realized vertex and cusp keeps the smallest id merged into it; union by
    rank would rename them and change every report.
    """

    def __init__(self):
        self.parent: dict[str, str] = {}

    def add(self, x: str):
        self.parent.setdefault(x, x)

    def find(self, x: str) -> str:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: str, b: str) -> str:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        root, sub = (ra, rb) if ra < rb else (rb, ra)
        self.parent[sub] = root
        return root


def betti(vertices: Iterable[str], edge_pairs: list[tuple[str, str]]) -> int:
    """First Betti number: edges minus vertices plus connected components."""
    uf = _UnionFind()
    for v in vertices:
        uf.add(v)
    for a, b in edge_pairs:
        uf.union(a, b)
    components = len({uf.find(v) for v in uf.parent})
    return len(edge_pairs) - len(uf.parent) + components


# -- the input contract -----------------------------------------------------------


def check_input(raw: InputGraphOfGroups, catalog: Catalog = DEFAULT_CATALOG) -> CheckedInput:
    """Check the input contract and resolve derived edge groups.

    The contract is all that needs no gluing: ids, endpoints, a forest of edges,
    admissible groups with trees, gluable edge groups, genus edges closing
    loops. Raises ValidationError listing every violation; ``realize`` checks
    the attachment traces.
    """
    bad: list[str] = []
    ctx = raw.ctx
    seen_v: dict[str, GroupSymbol] = {}
    for v in raw.vertices:
        if v.id in seen_v:
            bad.append(f"vertex {v.id}: duplicate id")
            continue
        seen_v[v.id] = v.group
        for msg in validate_in_context(v.group, ctx):
            bad.append(f"vertex {v.id}: {msg}")
        try:
            catalog.elementary_tree(v.group, ctx)
        except CatalogError as exc:
            bad.append(f"vertex {v.id}: {exc}")
        except ContextError:
            pass  # already reported above
    ids = set()
    uf = _UnionFind()
    for vid in seen_v:
        uf.add(vid)
    edges = []
    for e in raw.edges:
        if e.id in ids:
            bad.append(f"edge {e.id}: duplicate id")
            continue
        ids.add(e.id)
        a, b = e.ends
        if a not in seen_v or b not in seen_v:
            bad.append(f"edge {e.id}: endpoint does not exist")
            continue
        if a == b:
            bad.append(f"edge {e.id}: self-loops must be genus edges")
            continue
        if uf.find(a) == uf.find(b):
            bad.append(f"edge {e.id}: creates a cycle; cycles must be genus edges")
        uf.union(a, b)
        if e.derive:
            try:
                e = replace(e, group=derive_edge_group(seen_v[a], seen_v[b], ctx), derive=False)
            except (DeriveError, ContextError, SymbolError) as exc:
                bad.append(f"edge {e.id}: {exc}")
                continue
        edges.append(e)
        group = e.group
        if group is None:
            bad.append(f"edge {e.id}: no group given and derive not requested")
            continue
        if group == TRIVIAL:
            continue  # component connector; no attachment needed
        violations = validate_in_context(group, ctx)
        if violations:
            bad.extend(f"edge {e.id}: {msg}" for msg in violations)
            continue
        if ctx.positive_char:
            if not is_borel_form(group):
                bad.append(
                    f"edge {e.id}: edge group not Borel/cyclic/printed ({group} in this context)"
                )
        elif not is_cyclic(group):
            # Characteristic zero admits cyclic edge groups, plus the printed
            # (or extension-supplied) small-residue instances.
            try:
                printed = catalog.elementary_tree(group, ctx).printed
            except CatalogError:
                printed = False
            if not printed:
                bad.append(
                    f"edge {e.id}: edge group not Borel/cyclic/printed "
                    f"({group} has no gluing data in this context)"
                )
    for ge in raw.genus_edges:
        if ge.id in ids:
            bad.append(f"genus edge {ge.id}: duplicate id")
            continue
        ids.add(ge.id)
        a, b = ge.ends
        if a not in seen_v or b not in seen_v:
            bad.append(f"genus edge {ge.id}: endpoint does not exist")
            continue
        if ge.group != TRIVIAL:
            bad.append(f"genus edge {ge.id}: genus edges must have trivial stabilizer")
        if uf.find(a) != uf.find(b):
            bad.append(
                f"genus edge {ge.id}: endpoints lie in different components; "
                "a genus edge must close a loop"
            )
    if bad:
        raise ValidationError(bad)
    return CheckedInput(ctx, tuple(raw.vertices), tuple(edges), tuple(raw.genus_edges), catalog)


def validate_input(raw: InputGraphOfGroups, catalog: Catalog = DEFAULT_CATALOG) -> list[str]:
    """A dry run of ``check_input`` and ``realize``: the violations they raise, empty
    exactly when the input realizes. Internal errors (cusp conservation) propagate."""
    try:
        realize(check_input(raw, catalog))
    except ValidationError as exc:
        return exc.violations
    except RealizeError as exc:
        if str(exc).startswith("internal:"):
            raise
        return [str(exc)]
    return []


def cusp_count_general(checked: CheckedInput) -> int:
    """The general closed form: boundary sums over vertices minus edges."""
    cat = checked.catalog
    total = sum(cat.boundary_count(v.group, checked.ctx) for v in checked.vertices)
    total -= sum(
        cat.boundary_count(e.group, checked.ctx)
        for e in checked.edges
        if e.group != TRIVIAL
    )
    return total


# -- realization ----------------------------------------------------------------


class _Builder:
    def __init__(self, checked: CheckedInput):
        self.checked = checked
        self.ctx = checked.ctx
        self.catalog = checked.catalog
        self.verts = _UnionFind()
        self.vstab: dict[str, GroupSymbol] = {}
        self.cusps = _UnionFind()
        self.cstab: dict[str, GroupSymbol] = {}
        self.cbase: dict[str, str] = {}
        self.cmark: dict[str, GroupSymbol | None] = {}
        self.consumed: set[str] = set()
        self.edges: list[tuple[str, str, str, GroupSymbol]] = []
        self.loops: list[tuple[str, str, str]] = []
        self.trees: dict[str, ElementaryTree] = {}
        self.embedded: set[str] = set()
        self.notes: list[str] = []
        self.violations: list[str] = []

    # -- primitives --

    def add_vertex(self, vid: str, stab: GroupSymbol):
        self.verts.add(vid)
        self.vstab[vid] = stab

    def add_cusp(self, cid: str, base: str, stab: GroupSymbol, mark: GroupSymbol | None = None):
        self.cusps.add(cid)
        self.cstab[cid] = stab
        self.cbase[cid] = base
        self.cmark[cid] = mark

    def merge_stabs(self, a: GroupSymbol, b: GroupSymbol, what: str) -> GroupSymbol:
        if a == b:
            return a
        if symbol_contains(a, b, self.ctx):
            return a
        if symbol_contains(b, a, self.ctx):
            return b
        raise RealizeError(f"stabilizer merge without containment: {a} vs {b} ({what})")

    def merge_vertices(self, a: str, b: str) -> str:
        ra, rb = self.verts.find(a), self.verts.find(b)
        if ra == rb:
            return ra
        stab = self.merge_stabs(self.vstab[ra], self.vstab[rb], f"vertices {ra}, {rb}")
        root = self.verts.union(ra, rb)
        self.vstab[root] = stab
        other = rb if root == ra else ra
        self.vstab.pop(other, None)
        return root

    def merge_cusps(self, ids: Iterable[str], what: str) -> str:
        roots = []
        for cid in ids:
            r = self.cusps.find(cid)
            if r in self.consumed:
                raise RealizeError(f"attachment site already used: {cid} ({what})")
            if r not in roots:
                roots.append(r)
        stab = self.cstab[roots[0]]
        for r in roots[1:]:
            stab = self.merge_stabs(stab, self.cstab[r], what)
        root = roots[0]
        for r in roots[1:]:
            root = self.cusps.union(root, r)
        for r in roots:
            if r != root:
                self.cstab.pop(r, None)
        self.cstab[root] = stab
        return root

    def resolve_site(self, input_vid: str, local_cusp: str, edge_id: str) -> str:
        cid = f"{input_vid}:{local_cusp}"
        root = self.cusps.find(cid)
        if root in self.consumed:
            raise RealizeError(
                f"edge {edge_id}: attachment site {cid} already used by an earlier gluing"
            )
        return root

    def consume(self, root: str):
        self.consumed.add(self.cusps.find(root))

    # -- placement --

    def place_trees(self):
        for v in sorted(self.checked.vertices, key=lambda x: x.id):
            tree = self.catalog.elementary_tree(v.group, self.ctx)
            self.trees[v.id] = tree
            for tv in tree.vertices:
                self.add_vertex(f"{v.id}:{tv.id}", tv.stabilizer)
            for te in tree.internal_edges:
                self.edges.append(
                    (f"{v.id}:{te.id}", f"{v.id}:{te.ends[0]}", f"{v.id}:{te.ends[1]}", te.stabilizer)
                )
            for c in tree.cusps:
                self.add_cusp(f"{v.id}:{c.id}", f"{v.id}:{c.base_vertex}", c.stabilizer, c.marked_point)

    def anchor(self, input_vid: str) -> str:
        return f"{input_vid}:{self.trees[input_vid].vertices[0].id}"

    # -- trace selection --

    def candidates(self, edge: InputEdge) -> list[tuple[AttachmentTrace, ...]]:
        """Per end of ``edge``, the traces that may glue it: all, or those its site
        hint names. Where there are none, the reason goes to ``violations``."""
        out = []
        for vid, hint, side in zip(edge.ends, edge.site_hints, ("from", "to")):
            gv = self.trees[vid].group
            traces = self.catalog.attachment_traces(edge.group, gv, self.ctx)
            if not traces:
                self.violations.append(
                    f"edge {edge.id}: no attachment trace of T*({edge.group}) into T*({gv}) "
                    f"at vertex {vid}; gluing inadmissible"
                )
            elif hint is not None:
                traces = tuple(t for t in traces if hint in (t.site, t.partner_site))
                if not traces:
                    self.violations.append(
                        f"edge {edge.id}: site hint {hint!r} ({side}) matches no attachment site"
                    )
            out.append(traces)
        return out

    def select_trace(self, edge: InputEdge, end_index: int, traces: tuple) -> AttachmentTrace:
        """The candidate that still applies after the earlier gluings."""
        vid = edge.ends[end_index]
        tree = self.trees[vid]
        live = []
        for t in traces:
            if t.embed is not None:
                live.append(t)
                continue
            try:
                root = self.resolve_site(vid, t.site, edge.id)
                # Earlier gluings may have merged the site into a cusp with a
                # larger stabilizer; the trace then no longer applies.
                if self.cstab[root] != tree.cusp(t.site).stabilizer:
                    continue
                if t.partner_site:
                    proot = self.resolve_site(vid, t.partner_site, edge.id)
                    if self.cstab[proot] != tree.cusp(t.partner_site).stabilizer:
                        continue
            except RealizeError:
                continue
            live.append(t)
        if not live:
            raise RealizeError(
                f"edge {edge.id}: all matching attachment sites at {vid} already used"
            )
        if len(live) == 1:
            return live[0]
        first = live[0]
        if all(t.equivalent(first) for t in live[1:]):
            return min(live, key=lambda t: t.site)
        raise RealizeError(
            f"edge {edge.id}: ambiguous attachment at {vid} "
            f"(sites {sorted(t.site for t in live)}); give a site hint"
        )

    # -- gluing cases --

    def glue(self, edge: InputEdge, traces):
        uid, vid = edge.ends
        if edge.group == TRIVIAL:
            self.edges.append((edge.id, self.anchor(uid), self.anchor(vid), TRIVIAL))
            return
        tu = self.select_trace(edge, 0, traces[0])
        tv = self.select_trace(edge, 1, traces[1])
        kinds = (tu.kind, tv.kind)
        if tu.embed is not None or tv.embed is not None:
            if tu.embed is None or tv.embed is None:
                raise RealizeError(
                    f"edge {edge.id}: printed-tree gluing requires printed trees on both sides"
                )
            self.glue_embed(edge, uid, tu, vid, tv)
        elif kinds == (KIND_INJECTIVE, KIND_INJECTIVE):
            self.glue_injective(edge, uid, tu, vid, tv)
        elif tu.kind == KIND_INJECTIVE or tv.kind == KIND_INJECTIVE:
            raise RealizeError(f"edge {edge.id}: inconsistent trace kinds {kinds}")
        elif kinds == (KIND_FOLD, KIND_FOLD):
            self.glue_fold_fold(edge, uid, tu, vid, tv)
        elif kinds == (KIND_ISO, KIND_ISO):
            self.glue_iso_iso(edge, uid, tu, vid, tv)
        else:
            if tu.kind == KIND_FOLD:
                self.glue_fold_iso(edge, uid, tu, vid, tv)
            else:
                self.glue_fold_iso(edge, vid, tv, uid, tu)

    def glue_injective(self, edge, uid, tu, vid, tv):
        su = self.resolve_site(uid, tu.site, edge.id)
        sv = self.resolve_site(vid, tv.site, edge.id)
        if su == sv:
            raise RealizeError(f"edge {edge.id}: both ends resolve to one attachment site")
        w = f"{edge.id}:w"
        self.add_vertex(w, edge.group)
        self.add_cusp(f"{edge.id}:c", w, edge.group)
        self.edges.append((f"{edge.id}:a", self.cbase[su], w, edge.group))
        self.edges.append((f"{edge.id}:b", w, self.cbase[sv], edge.group))
        self.consume(su)
        self.consume(sv)
        self.notes.append(
            f"edge {edge.id}: one-cusped edge group {edge.group} realized as a tripod "
            "junction (relative position of the endpoint trees is a modeling choice)"
        )

    def glue_fold_fold(self, edge, uid, tu, vid, tv):
        if tu.fold_at_mark and tv.fold_at_mark:
            raise RealizeError(
                f"edge {edge.id}: unsupported gluing; both sides fold at marked points "
                "(the two fold points of a line gluing must differ)"
            )
        if tv.fold_at_mark:
            uid, tu, vid, tv = vid, tv, uid, tu
        su = self.resolve_site(uid, tu.site, edge.id)
        sv = self.resolve_site(vid, tv.site, edge.id)
        if tu.fold_at_mark:
            w = f"{edge.id}:w"
            self.add_vertex(w, self.trees[uid].cusp(tu.site).marked_point)
            self.edges.append((f"{edge.id}:a", self.cbase[su], w, edge.group))
            self.edges.append((f"{edge.id}:b", w, self.cbase[sv], edge.group))
        else:
            self.edges.append((edge.id, self.cbase[su], self.cbase[sv], edge.group))
        self.consume(su)
        self.consume(sv)

    def glue_iso_iso(self, edge, uid, tu, vid, tv):
        lu = self.resolve_site(uid, tu.partner_site, edge.id)
        fu = self.resolve_site(uid, tu.site, edge.id)
        lv = self.resolve_site(vid, tv.partner_site, edge.id)
        fv = self.resolve_site(vid, tv.site, edge.id)
        if len({lu, fu}) < 2 or len({lv, fv}) < 2:
            raise RealizeError(f"edge {edge.id}: attachment sites exhausted at an endpoint")
        self.merge_vertices(self.anchor(uid), self.anchor(vid))
        self.merge_cusps([lu, lv], f"edge {edge.id}")
        self.merge_cusps([fu, fv], f"edge {edge.id}")

    def glue_fold_iso(self, edge, fid, tf, iid, ti):
        sf = self.resolve_site(fid, tf.site, edge.id)
        li = self.resolve_site(iid, ti.partner_site, edge.id)
        fi = self.resolve_site(iid, ti.site, edge.id)
        if li == fi:
            raise RealizeError(f"edge {edge.id}: attachment sites exhausted at {iid}")
        if tf.fold_at_mark:
            w = f"{edge.id}:w"
            self.add_vertex(w, self.trees[fid].cusp(tf.site).marked_point)
            self.edges.append((edge.id, self.cbase[sf], w, edge.group))
            self.consume(sf)
            self.merge_vertices(w, self.anchor(iid))
            self.merge_cusps([li, fi], f"edge {edge.id}")
        else:
            self.merge_vertices(self.cbase[sf], self.anchor(iid))
            self.merge_cusps([sf, li, fi], f"edge {edge.id}")

    def glue_embed(self, edge, uid, tu, vid, tv):
        flavors = {tu.kind, tv.kind}
        if flavors == {KIND_FOLD}:
            raise RealizeError(
                f"edge {edge.id}: unsupported printed gluing (both morphisms fold)"
            )
        if flavors == {KIND_ISO}:
            raise RealizeError(
                f"edge {edge.id}: unsupported printed gluing (both morphisms are tree "
                "isomorphisms)"
            )
        if tu.kind == KIND_ISO:
            uid, tu, vid, tv = vid, tv, uid, tu
        fid, iid, tf, ti = uid, vid, tu, tv
        for side in (fid, iid):
            if side in self.embedded:
                raise RealizeError(
                    f"edge {edge.id}: vertex {side} already used by a printed-tree gluing"
                )
        edge_tree = self.catalog.elementary_tree(edge.group, self.ctx)
        fmap, imap = dict(tf.embed.vertex_map), dict(ti.embed.vertex_map)
        fcusp, icusp = dict(tf.embed.cusp_map), dict(ti.embed.cusp_map)
        fmarks, imarks = dict(tf.embed.mark_map), dict(ti.embed.mark_map)
        for ev in edge_tree.vertices:
            if ev.id not in fmap or ev.id not in imap:
                raise RealizeError(
                    f"edge {edge.id}: printed trace does not cover edge-tree vertex {ev.id}"
                )
            self.merge_vertices(f"{fid}:{fmap[ev.id]}", f"{iid}:{imap[ev.id]}")
        for ec in sorted(c.id for c in edge_tree.cusps):
            in_cusp = ec in fcusp and ec in icusp
            in_mark = ec in fmarks and ec in imarks
            if not (in_cusp or in_mark):
                raise RealizeError(
                    f"edge {edge.id}: printed trace does not cover edge-tree cusp {ec}"
                )
        for ec, target in sorted(fcusp.items()):
            a = self.resolve_site(fid, target, edge.id)
            b = self.resolve_site(iid, icusp[ec], edge.id)
            self.merge_cusps([a, b], f"edge {edge.id}")
        for ec, (fkind, floc) in sorted(fmarks.items()):
            ikind, iloc = imarks[ec]
            if fkind != "vertex" or ikind != "mark":
                raise RealizeError(
                    f"edge {edge.id}: unsupported printed mark correspondence "
                    f"({fkind} vs {ikind})"
                )
            cut = self.resolve_site(iid, iloc, edge.id)
            mark_stab = self.cmark.get(f"{iid}:{iloc}") or self.cstab[cut]
            w = f"{edge.id}:w:{ec}"
            self.add_vertex(w, mark_stab)
            fold_base = f"{fid}:{fmap[edge_tree.cusp(ec).base_vertex]}"
            fold_top = f"{fid}:{floc}"
            if not self._has_edge_between(fold_base, fold_top):
                self.edges.append((f"{edge.id}:{ec}", self.cbase[cut], w, edge.group))
            self.consume(cut)
            self.merge_vertices(w, fold_top)
        self.embedded.add(fid)
        self.embedded.add(iid)

    def _has_edge_between(self, a: str, b: str) -> bool:
        ra, rb = self.verts.find(a), self.verts.find(b)
        for _, x, y, _stab in self.edges:
            if {self.verts.find(x), self.verts.find(y)} == {ra, rb}:
                return True
        return False

    # -- output --

    def printed(self, edge: InputEdge) -> bool:
        return not self.ctx.positive_char and edge.group != TRIVIAL and not is_cyclic(edge.group)

    def build(self) -> KatoGraph:
        self.place_trees()
        # Printed (embed) gluings go first: a fold glued earlier could take a
        # cusp that the embed must merge. Within each phase, edge id sets the order.
        gluing = sorted(self.checked.edges, key=lambda e: (not self.printed(e), e.id))
        # Every end's traces are looked up before anything is glued, so missing
        # gluing data is reported whole and never masked by a gluing conflict.
        traces = {e.id: self.candidates(e) for e in gluing if e.group != TRIVIAL}
        if self.violations:
            raise ValidationError(self.violations)
        for edge in gluing:
            self.glue(edge, traces.get(edge.id))
        for ge in sorted(self.checked.genus_edges, key=lambda g: g.id):
            self.loops.append((ge.id, self.anchor(ge.ends[0]), self.anchor(ge.ends[1])))
        vertices = tuple(
            GraphVertex(r, self.vstab[r])
            for r in sorted(set(self.verts.find(x) for x in self.verts.parent))
        )
        edges = tuple(
            GraphEdge(eid, (self.verts.find(a), self.verts.find(b)), stab)
            for eid, a, b, stab in sorted(self.edges)
        )
        cusps = tuple(
            GraphCusp(r, self.verts.find(self.cbase[r]), self.cstab[r])
            for r in sorted(set(self.cusps.find(x) for x in self.cusps.parent))
            if r not in self.consumed
        )
        loops = tuple(
            GraphLoop(lid, (self.verts.find(a), self.verts.find(b)))
            for lid, a, b in sorted(self.loops)
        )
        graph = KatoGraph(self.ctx, vertices, edges, cusps, loops, tuple(self.notes))
        expected = cusp_count_general(self.checked)
        if len(graph.cusps) != expected:
            raise RealizeError(
                f"internal: cusp conservation violated (direct {len(graph.cusps)}, "
                f"expected {expected})"
            )
        return graph


def realize(checked: CheckedInput) -> KatoGraph:
    """Glue the elementary trees of a checked input into its Kato graph.

    Raises ValidationError listing every edge end the input gives no gluing
    data for (no attachment trace, or a site hint matching none), and
    RealizeError when a gluing conflicts with an earlier one. It re-checks the
    cusp conservation identity sum_v #bd T*(N_v) - sum_e #bd T*(N_e) against
    the direct count and refuses to return a graph violating it.
    """
    return _Builder(checked).build()


# -- graph-level operations -------------------------------------------------------


def irreducible_components(g: KatoGraph) -> tuple[IrreducibleComponent, ...]:
    """Maximal subgraphs connected by edges with non-trivial stabilizers."""
    uf = _UnionFind()
    for v in g.vertices:
        uf.add(v.id)
    for e in g.finite_edges:
        if e.stabilizer != TRIVIAL:
            uf.union(e.ends[0], e.ends[1])
    groups: dict[str, list[str]] = {}
    for v in g.vertices:
        groups.setdefault(uf.find(v.id), []).append(v.id)
    comps = []
    for root in sorted(groups):
        vs = tuple(sorted(groups[root]))
        es = tuple(
            sorted(
                e.id
                for e in g.finite_edges
                if e.stabilizer != TRIVIAL and uf.find(e.ends[0]) == root
            )
        )
        comps.append(IrreducibleComponent(vs, es))
    return tuple(comps)


def genus(g: KatoGraph) -> int:
    """First Betti number of the underlying graph, genus loops included."""
    ends = [e.ends for e in g.finite_edges] + [l.ends for l in g.genus_loops]
    return betti((v.id for v in g.vertices), ends)

"""Input graphs of groups, validation, and realization into Kato graphs.

Realization places one elementary tree per input vertex and performs one
gluing step per non-trivial edge, printed gluings first. A printed edge tree
is mapped through its embed maps; every other edge pastes the line of its tree
between the trees of its two ends. Identifiers of the realized graph are
derived deterministically from input ids plus catalog-local ids, so two runs
on the same input produce byte-identical graphs.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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
    symbol_contains,
    validate_in_context,
)


class ValidationError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class RealizeError(ValueError):
    """Raised when a validated input cannot be glued."""


# -- input model ---------------------------------------------------------------


class InputVertex(NamedTuple):
    id: str
    group: GroupSymbol


class InputEdge(NamedTuple):
    id: str
    ends: tuple[str, str]
    group: GroupSymbol | None = None
    derive: bool = False
    site_hints: tuple[str | None, str | None] = (None, None)


class GenusEdge(NamedTuple):
    id: str
    ends: tuple[str, str]
    group: GroupSymbol = TRIVIAL


class InputGraphOfGroups(NamedTuple):
    ctx: FieldContext
    vertices: tuple[InputVertex, ...]
    edges: tuple[InputEdge, ...] = ()
    genus_edges: tuple[GenusEdge, ...] = ()


class CheckedInput(NamedTuple):
    """An input meeting the contract of ``check_input``, edge groups resolved. ``traces``
    pairs the id of each non-trivial edge with its two ends' candidate traces."""

    ctx: FieldContext
    vertices: tuple[InputVertex, ...]
    edges: tuple[InputEdge, ...]
    genus_edges: tuple[GenusEdge, ...]
    traces: tuple[tuple[str, tuple[tuple[AttachmentTrace, ...], ...]], ...]
    catalog: Catalog = DEFAULT_CATALOG


# -- realized model -------------------------------------------------------------


class GraphVertex(NamedTuple):
    id: str
    stabilizer: GroupSymbol


class GraphEdge(NamedTuple):
    id: str
    ends: tuple[str, str]
    stabilizer: GroupSymbol


class GraphCusp(NamedTuple):
    id: str
    base: str
    stabilizer: GroupSymbol


class GraphLoop(NamedTuple):
    id: str
    ends: tuple[str, str]


class KatoGraph(NamedTuple):
    """A realized graph and the catalog that built it; ``realize`` lists each tuple by id."""

    ctx: FieldContext
    vertices: tuple[GraphVertex, ...]
    finite_edges: tuple[GraphEdge, ...]
    cusps: tuple[GraphCusp, ...]
    genus_loops: tuple[GraphLoop, ...]
    notes: tuple[str, ...] = ()
    catalog: Catalog = DEFAULT_CATALOG


# -- union-find -----------------------------------------------------------------


class _UnionFind:
    """Path-halving union-find over string ids.

    ``parent`` holds only the ids merged into another id; any other id is its own
    root, so ids need no adding and ``len(parent)`` counts the merging unions.
    ``union`` makes the lexicographically smaller root the new root, so each
    realized vertex and cusp keeps the smallest id merged into it; union by
    rank would rename them and change every report.
    """

    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        p = self.parent
        while (up := p.get(x)) is not None:
            if (top := p.get(up)) is None:
                return up
            p[x] = x = top  # path halving: x skips its parent
        return x

    def union(self, a: str, b: str) -> str:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        root, sub = (ra, rb) if ra < rb else (rb, ra)
        self.parent[sub] = root
        return root


def pair_error(value, what: str) -> str | None:
    """``<what> must be a pair, got …`` unless ``value`` is a list or tuple of two."""
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return None
    size = f" of {len(value)}" if isinstance(value, (tuple, list)) else ""
    return f"{what} must be a pair, got {type(value).__name__}{size}"


def betti(edge_pairs: list[tuple[str, str]]) -> int:
    """First Betti number of the graph of ``edge_pairs`` and any isolated vertices:
    edges minus the unions that merged two classes."""
    uf = _UnionFind()
    for a, b in edge_pairs:
        uf.union(a, b)
    return len(edge_pairs) - len(uf.parent)


# -- the input contract -----------------------------------------------------------


def check_input(raw: InputGraphOfGroups, catalog: Catalog = DEFAULT_CATALOG) -> CheckedInput:
    """Check the input contract, resolve derived edge groups and look up each edge's traces.

    The contract is all that reads only the input and the catalog: printable string ids,
    string site hints and endpoints (the last two in pairs), a forest of edges, admissible
    group symbols with trees, genus edges closing loops, a trace at each end of a non-trivial
    edge that its site hint names, and printed edges that glue a fold to an iso and share no
    vertex. Raises ValidationError listing every violation, or a bad field context alone."""
    if not isinstance(ctx := raw.ctx, FieldContext):
        raise ValidationError([f"input: ctx must be a field context, got {type(ctx).__name__}"])
    if wrong := [
        f"input: {name} must be a tuple or list, got {type(items).__name__}"
        for name, items in zip(raw._fields[1:], raw[1:]) if not isinstance(items, (tuple, list))
    ]:
        raise ValidationError(wrong)
    bad: list[str] = []

    def bad_value(value, kind: str, xid, what: str = "id") -> bool:
        if not isinstance(value, str):
            bad.append(f"{kind} {xid}: {what} must be a string, got {type(value).__name__}")
        elif what == "id" and not value.isprintable():  # an id may not add a line to a report
            bad.append(f"{kind} {value!r}: id must be printable")
        else:
            return False
        return True

    def not_pair(value, kind: str, xid, what: str) -> bool:
        if msg := pair_error(value, f"{kind} {xid}: {what}"):
            bad.append(msg)
        return msg is not None

    def not_symbol(g, kind: str, xid) -> bool:
        if isinstance(g, GroupSymbol):
            return False
        bad.append(f"{kind} {xid}: group must be a group symbol, got {type(g).__name__}")
        return True

    seen_v: set[str] = set()
    hosts: dict[str, GroupSymbol] = {}  # the vertices whose groups have trees
    uf = _UnionFind()
    for v in raw.vertices:
        if bad_value(v.id, "vertex", v.id):
            continue
        if v.id in seen_v:
            bad.append(f"vertex {v.id}: duplicate id")
            continue
        seen_v.add(v.id)
        if not_symbol(v.group, "vertex", v.id):
            continue
        try:
            catalog.elementary_tree(v.group, ctx)  # only an admissible group gets a tree
        except ContextError:
            bad.extend(f"vertex {v.id}: {msg}" for msg in validate_in_context(v.group, ctx))
        except CatalogError as exc:
            bad.append(f"vertex {v.id}: {exc}")
        else:
            hosts[v.id] = v.group
    ids = set()

    def bad_ends(x, kind: str) -> bool:
        """Whether an edge or genus edge reuses an id or lacks two existing ends."""
        if x.id in ids:
            bad.append(f"{kind} {x.id}: duplicate id")
            return True
        ids.add(x.id)
        if not_pair(x.ends, kind, x.id, "ends"):
            return True
        a, b = x.ends
        if bad_value(a, kind, x.id, "end") | bad_value(b, kind, x.id, "end"):  # both are said
            return True
        if a in seen_v and b in seen_v:
            return False
        bad.append(f"{kind} {x.id}: endpoint does not exist")
        return True

    edges, glue_data, printed = [], [], []
    for e in raw.edges:
        if bad_value(e.id, "edge", e.id):
            continue
        faults = len(bad)
        if not not_pair(e.site_hints, "edge", e.id, "site hints"):
            for hint in e.site_hints:
                if hint is not None:
                    bad_value(hint, "edge", e.id, "site hint")
        if bad_ends(e, "edge"):
            continue
        a, b = e.ends
        if a == b:
            bad.append(f"edge {e.id}: self-loops must be genus edges")
            continue
        if uf.find(a) == uf.find(b):
            bad.append(f"edge {e.id}: creates a cycle; cycles must be genus edges")
        uf.union(a, b)
        if e.derive:
            if a not in hosts or b not in hosts:  # no group is derived from a refused one
                continue
            try:
                e = e._replace(group=derive_edge_group(hosts[a], hosts[b], ctx), derive=False)
            except (DeriveError, ContextError, SymbolError) as exc:
                bad.append(f"edge {e.id}: {exc}")
                continue
        edges.append(e)
        if e.group is None:
            bad.append(f"edge {e.id}: no group given and derive not requested")
            continue
        if not_symbol(e.group, "edge", e.id):
            continue
        bad.extend(f"edge {e.id}: {msg}" for msg in validate_in_context(e.group, ctx))
        # Only a sound edge between two trees gets its traces, so each fault is said once; a
        # trivial edge is a component connector, with none.
        if len(bad) > faults or e.group == TRIVIAL or a not in hosts or b not in hosts:
            continue
        ends = []  # per end, the traces that may glue it: all, or those its site hint names
        for vid, hint, side in zip(e.ends, e.site_hints, ("from", "to")):
            try:
                traces = catalog.attachment_traces(e.group, hosts[vid], ctx)
            except CatalogError as exc:  # the edge group glues nowhere
                bad.append(f"edge {e.id}: {exc}")
                break
            if not traces:
                bad.append(
                    f"edge {e.id}: no attachment trace of T*({e.group}) into T*({hosts[vid]}) "
                    f"at vertex {vid}; gluing inadmissible"
                )
            elif hint is not None:
                traces = tuple(t for t in traces if hint in (t.site, t.partner_site))
                if not traces:
                    bad.append(
                        f"edge {e.id}: site hint {hint!r} ({side}) matches no attachment site"
                    )
            ends.append(traces)
        if len(bad) > faults:
            continue
        glue_data.append((e.id, tuple(ends)))
        if ends[0][0].embed is not None:  # a printed edge tree glues by its embed maps
            printed.append((e.id, e.ends))
            if len(kinds := {t.kind for t in ends[0] + ends[1]}) == 1:
                both = "fold" if kinds == {KIND_FOLD} else "are tree isomorphisms"
                bad.append(f"edge {e.id}: unsupported printed gluing (both morphisms {both})")
    if printed:  # a vertex joins at most one printed gluing; the later edge in id order is named
        first = {vid: eid for eid, ends in sorted(printed, reverse=True) for vid in ends}
        bad.extend(
            f"edge {eid}: vertex {vid} already used by a printed-tree gluing"
            for eid, ends in printed for vid in ends if first[vid] != eid
        )
    for ge in raw.genus_edges:
        if bad_value(ge.id, "genus edge", ge.id) or bad_ends(ge, "genus edge"):
            continue
        if ge.group != TRIVIAL:
            bad.append(f"genus edge {ge.id}: genus edges must have trivial stabilizer")
        if uf.find(ge.ends[0]) != uf.find(ge.ends[1]):
            bad.append(
                f"genus edge {ge.id}: endpoints lie in different components; "
                "a genus edge must close a loop"
            )
    if bad:
        raise ValidationError(bad)
    return CheckedInput(
        ctx, tuple(raw.vertices), tuple(edges), tuple(raw.genus_edges), tuple(glue_data), catalog
    )


def validate_input(raw: InputGraphOfGroups, catalog: Catalog = DEFAULT_CATALOG) -> list[str]:
    """The violations that ``check_input`` and ``realize`` raise: none exactly if it realizes."""
    try:
        realize(check_input(raw, catalog))
    except ValidationError as exc:
        return exc.violations
    except RealizeError as exc:
        return [str(exc)]
    return []


# -- realization ----------------------------------------------------------------


class _Builder:
    def __init__(self, checked: CheckedInput):
        self.checked = checked
        self.ctx = checked.ctx
        self.catalog = checked.catalog
        # Realized vertices and cusps share one id table; cusps are the ids in cbase.
        self.ids = _UnionFind()
        self.stab: dict[str, GroupSymbol] = {}
        self.cbase: dict[str, str] = {}
        self.consumed: set[str] = set()
        self.edges: list[tuple[str, str, str, GroupSymbol]] = []
        self.trees: dict[str, ElementaryTree] = {}
        self.anchors: dict[str, str] = {}  # each input vertex's first tree vertex, realized
        self.notes: list[str] = []

    # -- primitives --

    def add(self, xid: str, stab: GroupSymbol, base: str | None = None):
        """A realized vertex, or a cusp based at the vertex ``base``. An id is taken
        while it is a root, which keeps a stabilizer, and once it is merged away."""
        if xid in self.stab or xid in self.ids.parent:
            raise RealizeError(f"realized id {xid} names two vertices or cusps; rename an id")
        self.stab[xid] = stab
        if base is not None:
            self.cbase[xid] = base

    def merge_stabs(self, a: GroupSymbol, b: GroupSymbol, what: str) -> GroupSymbol:
        if a == b:
            return a
        if symbol_contains(a, b, self.ctx):
            return a
        if symbol_contains(b, a, self.ctx):
            return b
        raise RealizeError(f"stabilizer merge without containment: {a} vs {b} ({what})")

    def merge(self, ids: Iterable[str], what: str | None = None) -> str:
        """Identify realized vertices, or cusps glued by ``what``; returns the root."""
        roots = []
        for xid in ids:
            r = self.ids.find(xid)
            if r not in roots:
                roots.append(r)
        root, stab = roots[0], self.stab.pop(roots[0])
        for r in roots[1:]:
            stab = self.merge_stabs(stab, self.stab.pop(r), what or f"vertices {roots[0]}, {r}")
            root = self.ids.union(root, r)
        self.stab[root] = stab
        return root

    def consume(self, root: str):
        self.consumed.add(self.ids.find(root))

    # -- placement --

    def place_trees(self):
        for v in sorted(self.checked.vertices, key=lambda x: x.id):
            tree = self.catalog.elementary_tree(v.group, self.ctx)
            self.trees[v.id] = tree
            pre = v.id + ":"
            self.anchors[v.id] = pre + tree.vertices[0].id
            for tv in tree.vertices:
                self.add(pre + tv.id, tv.stabilizer)
            for te in tree.internal_edges:
                a, b = te.ends
                self.edges.append((pre + te.id, pre + a, pre + b, te.stabilizer))
            for c in tree.cusps:
                self.add(pre + c.id, c.stabilizer, pre + c.base_vertex)

    # -- trace selection --

    def select_trace(self, edge: InputEdge, end_index: int, traces: tuple):
        """The candidate that still applies after the earlier gluings, with the
        roots of its partner site and site (none for a printed trace). An iso
        trace whose two sites an earlier gluing merged is a plain fold there.
        The roots are unconsumed, and two trees' sites merge only along input
        edges, a forest; so before an edge glues its ends share no root, and
        ``paste`` never merges a consumed site or both ends onto one site."""
        vid = edge.ends[end_index]
        tree = self.trees[vid]
        live = []
        for t in traces:
            roots = ()
            sites = () if t.embed is not None else filter(None, (t.partner_site, t.site))
            for site in sites:
                root = self.ids.find(f"{vid}:{site}")
                # Earlier gluings may have used the site, or merged it into a cusp
                # with a larger stabilizer; the trace then no longer applies.
                if root in self.consumed or self.stab[root] != tree.cusp(site).stabilizer:
                    break
                roots += (root,)
            else:
                live.append((t, roots))
        if not live:
            raise RealizeError(
                f"edge {edge.id}: all matching attachment sites at {vid} already used"
            )
        if len(live) > 1 and not all(t.equivalent(live[0][0]) for t, _ in live[1:]):
            raise RealizeError(
                f"edge {edge.id}: ambiguous attachment at {vid} "
                f"(sites {sorted(t.site for t, _ in live)}); give a site hint"
            )
        t, roots = min(live, key=lambda live_trace: live_trace[0].site) if live[1:] else live[0]
        if t.kind == KIND_ISO and len(set(roots)) == 1:
            return AttachmentTrace(t.site, KIND_FOLD), roots[1:]
        return t, roots

    # -- gluing --

    def glue(self, edge: InputEdge, traces):
        uid, vid = edge.ends
        if edge.group == TRIVIAL:
            self.edges.append((edge.id, self.anchors[uid], self.anchors[vid], TRIVIAL))
            return
        tu, ru = self.select_trace(edge, 0, traces[0])
        tv, rv = self.select_trace(edge, 1, traces[1])
        if tu.fold_at_mark and tv.fold_at_mark:
            raise RealizeError(
                f"edge {edge.id}: unsupported gluing; both sides fold at marked points "
                "(the two fold points of a line gluing must differ)"
            )
        # A fold end goes before an iso end, and a fold at a marked point before a plain fold.
        first, second = (uid, tu, ru), (vid, tv, rv)
        if (tv.kind == KIND_ISO, not tv.fold_at_mark) < (tu.kind == KIND_ISO, not tu.fold_at_mark):
            first, second = second, first
        if tu.embed is not None:
            self.glue_embed(edge, *first[:2], *second[:2])
        else:
            self.paste(edge, first, second)

    def paste(self, edge: InputEdge, first, second):
        """Paste the line T*(N_e) between two ends ordered as in ``glue``; an end is
        its input vertex, its trace and the roots ``select_trace`` gave.

        A fold or injective end attaches the line at the base of its site. A
        junction e:w sits on the line when the edge tree is one-cusped (with the
        cusp e:c) or when the first end folds at a marked point. An iso end
        absorbs the line: its anchor merges onto the other end's point, and its
        partner site and site onto the other end's images of them. These are the
        other end's two sites (iso) or its fold site (plain fold); a marked fold
        has used its site up, so the iso end's two sites merge with each other.
        """
        (uid, tu, ru), (vid, tv, rv) = first, second
        line = [] if tu.kind == KIND_ISO else [self.cbase[ru[-1]]]
        if tu.kind == KIND_INJECTIVE:
            line.append(f"{edge.id}:w")
            self.add(line[-1], edge.group)
            self.add(f"{edge.id}:c", edge.group, line[-1])
            self.notes.append(
                f"edge {edge.id}: one-cusped edge group {edge.group} realized as a tripod "
                "junction (relative position of the endpoint trees is a modeling choice)"
            )
        elif tu.fold_at_mark:
            line.append(f"{edge.id}:w")
            self.add(line[-1], self.trees[uid].cusp(tu.site).marked_point)
        if tv.kind != KIND_ISO:
            line.append(self.cbase[rv[-1]])
        names = [edge.id] if len(line) == 2 else [f"{edge.id}:a", f"{edge.id}:b"]
        self.edges.extend((name, a, b, edge.group) for name, a, b in zip(names, line, line[1:]))
        if tv.kind != KIND_ISO or tu.fold_at_mark:
            self.consume(ru[-1])
        if tv.kind != KIND_ISO:
            self.consume(rv[-1])
            return
        self.merge([line[-1] if line else self.anchors[uid], self.anchors[vid]])
        if tu.fold_at_mark:
            merges = [rv]
        elif tu.kind == KIND_ISO:
            merges = zip(ru, rv)
        else:
            merges = [ru + rv]
        for ids in merges:
            self.merge(ids, f"edge {edge.id}")

    def glue_embed(self, edge, fid, tf, iid, ti):
        """Glue a printed edge tree by its embed maps: ``fid``'s trace folds and ``iid``'s is
        a tree isomorphism, as ``check_input`` requires. Printed gluings go first and each
        vertex joins at most one, so both trees are as placed and the maps name their own
        ids; the printed-trace rules make the two maps name the same edge-tree locations. A
        mark uses up the iso side's marked site and covers the fold tree's edge to its image."""
        fmaps, imaps = tf.embed, ti.embed
        self.merge([f"{fid}:{fmaps.vertex_map[0][1]}", f"{iid}:{imaps.vertex_map[0][1]}"])
        icusp, imarks = dict(imaps.cusp_map), dict(imaps.mark_map)
        for ec, target in sorted(fmaps.cusp_map):
            self.merge([f"{fid}:{target}", f"{iid}:{icusp[ec]}"], f"edge {edge.id}")
        for ec, (_, floc) in sorted(fmaps.mark_map):
            iloc = imarks[ec][1]
            w = f"{edge.id}:w:{ec}"
            self.add(w, self.trees[iid].cusp(iloc).marked_point)
            self.consume(f"{iid}:{iloc}")
            self.merge([w, f"{fid}:{floc}"])

    # -- output --

    def build(self) -> KatoGraph:
        self.place_trees()
        traces = dict(self.checked.traces)
        # Printed gluings go first, as a fold could take a cusp an embed must merge; then by id.
        printed = {eid for eid, ends in traces.items() if ends[0][0].embed is not None}
        for edge in sorted(self.checked.edges, key=lambda e: (e.id not in printed, e.id)):
            self.glue(edge, traces.get(edge.id))
        # The roots are exactly the ids that keep a stabilizer.
        roots, find, anchors = sorted(self.stab), self.ids.find, self.anchors
        vertices = tuple(GraphVertex(r, self.stab[r]) for r in roots if r not in self.cbase)
        edges = tuple(
            GraphEdge(eid, (find(a), find(b)), stab) for eid, a, b, stab in sorted(self.edges)
        )
        cusps = tuple(
            GraphCusp(r, find(self.cbase[r]), self.stab[r])
            for r in roots
            if r in self.cbase and r not in self.consumed
        )
        loops = tuple(
            GraphLoop(ge.id, (find(anchors[ge.ends[0]]), find(anchors[ge.ends[1]])))
            for ge in sorted(self.checked.genus_edges, key=lambda g: g.id)
        )
        seen: set[str] = set()
        for x in edges + loops:
            if x.id in seen:
                raise RealizeError(f"realized id {x.id} names two edges; rename an id")
            seen.add(x.id)
        return KatoGraph(self.ctx, vertices, edges, cusps, loops, tuple(self.notes), self.catalog)


def realize(checked: CheckedInput) -> KatoGraph:
    """Glue the elementary trees of a checked input into its Kato graph, by the traces
    ``check_input`` found. Raises RealizeError only where an earlier gluing decides: every
    matching site already used, live traces that are not equivalent, two ends folding at
    marked points, a stabilizer merge without containment, or a realized name used twice.
    """
    return _Builder(checked).build()


# -- graph-level operations -------------------------------------------------------


def genus(g: KatoGraph) -> int:
    """First Betti number of the underlying graph, genus loops included."""
    return betti([e.ends for e in g.finite_edges] + [l.ends for l in g.genus_loops])

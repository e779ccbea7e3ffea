"""The elementary tree catalog: one finite decorated tree per admissible group.

Characteristic p entries follow the classification proposition item by item;
characteristic 0 splits into the generic star shapes (residue characteristic
above 5, or group order prime to it), which are the characteristic-p shapes,
and the printed small-residue instances. Each printed instance is one
``PrintedEntry``: its tree and its gluing traces, keyed by edge group. The
built-in ones are the D5 / A5 / D_{10m} family at residue characteristic 5;
further entries load from an extension file (see ``parse_extension``). A
lookup tries the extension entry first, then the built-in one. The entry
that gives a tree also gives every gluing into it: an extension entry with
no traces for an edge group admits no gluing of that group.

All trees and traces are immutable. A Catalog builds each tree, each pair's
traces and each generation verdict once, on first request, and keeps them in
its own tables for as long as it lives; it is still safe to share freely.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from itertools import permutations
from typing import NamedTuple

from .groups import (
    ContextError,
    FieldContext,
    GroupSymbol,
    SymbolError,
    borel,
    borel_extends,
    borel_params,
    canonicalize,
    cyclic,
    dihedral,
    is_admissible,
    is_borel_form,
    json_scalar,
    order,
    pl_invariants,
    symbol_contains,
    validate_in_context,
    KIND_BOREL,
    KIND_CYCLIC,
    KIND_DIHEDRAL,
    KIND_ICOSAHEDRAL,
    KIND_OCTAHEDRAL,
    KIND_PROJ_LINEAR,
    KIND_TETRAHEDRAL,
    KIND_TRIVIAL,
    TRIVIAL,
)


class CatalogError(ValueError):
    """Missing or invalid catalog data for a requested group."""


class TreeVertex(NamedTuple):
    id: str
    stabilizer: GroupSymbol


class TreeEdge(NamedTuple):
    id: str
    ends: tuple[str, str]
    stabilizer: GroupSymbol


class CuspSite(NamedTuple):
    """A half-open edge of an elementary tree.

    ``marked_point`` is the stabilizer of the distinguished interior point,
    when the catalog marks one; ``fold_on_attach`` records that gluing along
    this site folds the incoming edge-tree line (the mirror data of the
    construction, reduced to a flag).
    """

    id: str
    base_vertex: str
    stabilizer: GroupSymbol
    marked_point: GroupSymbol | None = None
    fold_on_attach: bool = False


class ElementaryTree(NamedTuple):
    group: GroupSymbol
    vertices: tuple[TreeVertex, ...]
    internal_edges: tuple[TreeEdge, ...]
    cusps: tuple[CuspSite, ...]
    printed: bool = False

    def cusp(self, cusp_id: str) -> CuspSite:
        for c in self.cusps:
            if c.id == cusp_id:
                return c
        raise KeyError(cusp_id)


class EmbedMaps(NamedTuple):
    """Location maps of a printed-tree gluing morphism.

    Keys are locations of the edge group's tree, values locations of the
    vertex group's tree. Marked cusps map either onto a vertex (the fold
    flavor: the mark lands on that vertex and the initial segment covers an
    internal edge) or onto the target's own marked cusp (the iso flavor).
    """

    vertex_map: tuple[tuple[str, str], ...]
    cusp_map: tuple[tuple[str, str], ...]
    mark_map: tuple[tuple[str, tuple[str, str]], ...]


KIND_INJECTIVE = "injective"
KIND_FOLD = "fold"
KIND_ISO = "iso"


class AttachmentTrace(NamedTuple):
    """One admissible gluing of an edge-group tree into a vertex-group tree."""

    site: str
    kind: str
    fold_at_mark: bool = False
    partner_site: str | None = None
    embed: EmbedMaps | None = None

    def equivalent(self, other: "AttachmentTrace") -> bool:
        """Indistinguishable up to a tree automorphism swapping the sites."""
        return (
            self.kind == other.kind
            and self.fold_at_mark == other.fold_at_mark
            and self.embed == other.embed
        )


class PrintedEntry(NamedTuple):
    """A printed small-residue tree at residue characteristic p, with its
    gluings: each trace paired with the edge group it glues in."""

    p: int
    tree: ElementaryTree
    traces: tuple[tuple[GroupSymbol, AttachmentTrace], ...] = ()


class _Kept(dict):
    """A table that builds a missing value with ``build(key)`` on first use and
    keeps it; a build that raises keeps nothing."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class Catalog:
    """Built-in elementary trees plus optional extension entries (read-only).

    Each instance keeps the trees, attachment traces and generation verdicts it has
    given, so catalogs with different extensions share none of them."""

    def __init__(self, extensions: Iterable[PrintedEntry] = ()):
        # The printed entry of (group, p): the extension's, else the built-in one, or None.
        self._entries = _Kept(lambda key: _builtin_printed(*key))
        for entry in extensions:
            key = (entry.tree.group, entry.p)
            if key in self._entries:
                raise CatalogError(f"duplicate extension entry for {key[0]} at p={entry.p}")
            self._entries[key] = entry
        self._trees = _Kept(lambda key: self._build_tree(*key))
        self._traces = _Kept(lambda key: self._traces_of(*key))
        self._verdicts = _Kept(lambda key: self._generation_violation(*key))
        # Every extension trace meets its two trees now, so a bad one fails at load, used or not.
        for (g, p), entry in tuple(self._entries.items()):  # the check keeps built-in entries
            for e, _ in entry.traces:
                try:
                    self._embed_traces(e, g, FieldContext(0, p, 1))
                except CatalogError as exc:
                    raise CatalogError(f"entry for {g} at p={p}: {exc}") from exc

    # -- trees ---------------------------------------------------------------

    def _admit(self, g: GroupSymbol, ctx: FieldContext) -> None:
        """Raise ContextError with the violations of ``g`` in ctx, if it has any."""
        if violations := validate_in_context(g, ctx):
            raise ContextError("; ".join(violations))

    def elementary_tree(self, g: GroupSymbol, ctx: FieldContext) -> ElementaryTree:
        """T*(g), built on the first request and kept; errors are not kept."""
        return self._trees[g, ctx]

    def _build_tree(self, g: GroupSymbol, ctx: FieldContext) -> ElementaryTree:
        self._admit(g, ctx)
        if ctx.positive_char or ctx.p > 5 or order(g, ctx) % ctx.p != 0:
            return self._star_tree(g, ctx)
        # Residue characteristic p <= 5 dividing the group order: a printed tree.
        entry = self._entries[g, ctx.p]
        if entry is None:
            raise CatalogError(
                f"catalog entry required: {g} at char 0 with residue characteristic {ctx.p} "
                "(group order divisible by p; supply an extension catalog entry)"
            )
        return entry.tree

    def boundary_count(self, g: GroupSymbol, ctx: FieldContext) -> int:
        """Number of cusps of the elementary tree.

        In characteristic 0 the count is 2 for cyclic groups and 3 otherwise,
        read from the rule rather than the tree, so that it stays total on the
        admissible groups with no tree (C5 and D15 at residue characteristic 5).
        """
        if ctx.positive_char or g.kind == KIND_TRIVIAL:
            return len(self.elementary_tree(g, ctx).cusps)
        self._admit(g, ctx)
        return 2 if g.kind == KIND_CYCLIC else 3

    def _star_tree(self, g: GroupSymbol, ctx: FieldContext) -> ElementaryTree:
        """One-vertex trees: every char-p group, and the generic char-0 groups.
        Each kind gives its cusp groups, and at most one marked cusp, which comes last."""
        c2, marked = cyclic(2), None
        if g.kind == KIND_TRIVIAL:
            groups = []
        elif g.kind == KIND_CYCLIC:
            groups = [g, g]
        elif g.kind == KIND_DIHEDRAL:
            # The order-2 generator is parabolic at p=2: its cusp is E_1.
            groups = [borel(1, 1), cyclic(g.n)] if ctx.p == 2 else [c2, c2, cyclic(g.n)]
        elif g.kind == KIND_BOREL:
            groups = [g] if g.n == 1 else [cyclic(g.n), g]
        elif g.kind == KIND_PROJ_LINEAR:
            inv = pl_invariants(g, ctx)
            groups, marked = [cyclic(inv.n_plus)], borel(g.t, inv.n_minus)
        elif g.kind == KIND_TETRAHEDRAL:
            groups = [c2, cyclic(3), cyclic(3)]
        elif g.kind == KIND_OCTAHEDRAL:
            groups = [c2, cyclic(3), cyclic(4)]
        elif g.kind == KIND_ICOSAHEDRAL and ctx.p == 3:
            groups, marked = [cyclic(5)], borel(1, 2)
        else:  # icosahedral
            groups = [c2, cyclic(3), cyclic(5)]
        cusps = [(0, h, False) for h in groups] + ([] if marked is None else [(0, marked, True)])
        return _tree(g, [g], [], cusps)

    # -- traces ---------------------------------------------------------------

    def attachment_traces(
        self, edge_group: GroupSymbol, vertex_group: GroupSymbol, ctx: FieldContext
    ) -> tuple[AttachmentTrace, ...]:
        """All admissible gluings of T*(edge_group) into T*(vertex_group).

        Every char-p edge group and every cyclic char-0 one has a star-shaped
        tree, and ``_star_traces`` gives its gluings; a non-cyclic char-0 edge
        group glues by the embed maps of its printed tree (``_embed_traces``).
        Returns () when T*(vertex_group) has no site for the edge group; raises
        CatalogError when the edge group glues nowhere in ctx (in char p when it
        is not of Borel form, in char 0 when its tree is missing or not printed)
        and when an embed trace breaks a printed-trace rule (``_trace_error``).
        Kept like trees, per (edge_group, vertex_group, ctx); errors are not kept.
        """
        return self._traces[edge_group, vertex_group, ctx]

    def _traces_of(self, edge_group: GroupSymbol, vertex_group: GroupSymbol, ctx: FieldContext):
        for g in (edge_group, vertex_group):
            if validate_in_context(g, ctx):
                raise ContextError(f"{g} is not admissible in this context")
        if edge_group.kind == KIND_TRIVIAL:
            raise SymbolError("trivial edges do not attach through the catalog")
        if ctx.positive_char:
            if not is_borel_form(edge_group):
                raise CatalogError(
                    f"edge group not Borel/cyclic/printed ({edge_group} in this context)"
                )
        elif edge_group.kind != KIND_CYCLIC:
            return self._embed_traces(edge_group, vertex_group, ctx)
        return self._star_traces(edge_group, vertex_group, ctx)

    def _star_traces(self, e: GroupSymbol, v: GroupSymbol, ctx: FieldContext):
        """Gluings of the star tree of e = B(t, n). For n = 1, injective at each
        E-site that e extends into; else the isomorphism into a non-trivial
        Borel-form v that extends e, none into any other, and elsewhere a fold at
        each site with stabilizer e, only at marked ones when t >= 1."""
        t, n = borel_params(e)
        cusps = self.elementary_tree(v, ctx).cusps
        if n == 1:
            return tuple(
                AttachmentTrace(c.id, KIND_INJECTIVE)
                for c in cusps
                if borel_extends(e, c.stabilizer)
            )
        if is_borel_form(v) and v.kind != KIND_TRIVIAL:
            if not borel_extends(e, v):
                return ()  # an E_t tree has one cusp; one that extends e has two
            return (AttachmentTrace(cusps[1].id, KIND_ISO, partner_site=cusps[0].id),)
        return tuple(
            AttachmentTrace(
                c.id, KIND_FOLD, fold_at_mark=c.marked_point is not None and c.fold_on_attach
            )
            for c in cusps
            if c.stabilizer == e and (t == 0 or c.marked_point is not None)
        )

    def _embed_traces(self, e: GroupSymbol, v: GroupSymbol, ctx: FieldContext):
        """The traces of e named by the entry that gives T*(v), and by no other entry."""
        try:
            edge_tree = self.elementary_tree(e, ctx)
        except (CatalogError, ContextError):  # an extension names any edge group
            edge_tree = None
        if edge_tree is None or not edge_tree.printed:
            raise CatalogError(
                f"edge group not Borel/cyclic/printed ({e} has no gluing data in this context)"
            )
        entry = self._entries[v, ctx.p]
        traces = tuple(t for g, t in entry.traces if g == e) if entry else ()
        for t in traces:
            if reason := _trace_error(edge_tree, t, entry.tree, ctx):
                raise CatalogError(f"{t.kind} trace of {e} into {v}: {reason}")
        return traces

    # -- the generation whitelist ------------------------------------------------

    def generation_violation(self, gv: GroupSymbol, inc: tuple, ctx: FieldContext) -> str | None:
        """Why the incident stabilizers ``inc`` of a vertex, in order, fail to generate ``gv``,
        or None. Kept like trees, per (gv, inc, ctx); errors are not kept."""
        return self._verdicts[gv, inc, ctx]

    def _generation_violation(self, gv: GroupSymbol, inc: tuple, ctx: FieldContext):
        """The whitelist rule, read from this catalog's trees. A trivial gv has no incident
        group, and any other has one. Each lies in gv (the first that does not is named), and
        the lcm of their orders divides |gv|. Then gv itself is incident, or some order of
        ``inc`` meets, entry by entry, the cusp and internal-edge stabilizers at a vertex of
        T*(gv) carrying gv; a marked cusp's entry also accepts a group containing its own."""
        if not inc:
            return None if gv == TRIVIAL else f"stabilizer {gv} with no incident groups"
        if gv == TRIVIAL:
            return "trivial stabilizer with non-trivial incidences"
        vorder, lcm = order(gv, ctx), 1
        for s in inc:
            if not symbol_contains(gv, s, ctx):
                return f"incident stabilizer {s} is not contained in {gv}"
            lcm = math.lcm(lcm, order(s, ctx))
        if vorder % lcm != 0:
            return f"lcm of incident orders {lcm} does not divide |{gv}| = {vorder}"
        if gv in inc:
            return None
        try:
            tree = self.elementary_tree(gv, ctx)
        except (CatalogError, ContextError):  # no tree, so no pattern
            tree = ElementaryTree(gv, (), (), ())
        for v in (v.id for v in tree.vertices if v.stabilizer == gv):
            cusps = [c for c in tree.cusps if c.base_vertex == v]
            pattern = [(c.stabilizer, c.marked_point is not None) for c in cusps]
            pattern += [(e.stabilizer, False) for e in tree.internal_edges if v in e.ends]
            if len(inc) == len(pattern) and any(
                all(s == h or (m and symbol_contains(s, h, ctx)) for s, (h, m) in zip(a, pattern))
                for a in permutations(inc)
            ):
                return None
        return f"incident pattern {sorted(str(s) for s in inc)} is not on the whitelist for {gv}"


def _trace_error(edge_tree: ElementaryTree, trace: AttachmentTrace, tree: ElementaryTree, ctx):
    """Why ``trace`` cannot glue the printed ``edge_tree`` into ``tree``, or None. The rules:
    the edge group is non-cyclic, with a tree of one vertex (two glued copies of an edge would
    close a cycle). The vertex map sends exactly that vertex to a vertex; the cusp map sends
    exactly the unmarked cusps, one to one, onto cusps whose stabilizers contain theirs, as
    gluing merges them; and the mark map sends exactly the marked ones: a fold trace's onto
    neighbours of the vertex's image, an iso trace's onto distinct marked cusps."""
    if edge_tree.group.kind == KIND_CYCLIC:
        return "a cyclic edge group glues by its star tree"
    if len(edge_tree.vertices) != 1:
        return f"T*({edge_tree.group}) must have one vertex, not {len(edge_tree.vertices)}"
    (ev,), (vertex_map, cusp_map, mark_map) = edge_tree.vertices, map(dict, trace.embed)
    image = vertex_map.get(ev.id)
    if vertex_map.keys() != {ev.id} or image not in {v.id for v in tree.vertices}:
        return f"the vertex map must send exactly {ev.id} to a vertex"
    unmarked = {c.id: c.stabilizer for c in edge_tree.cusps if c.marked_point is None}
    if cusp_map.keys() != unmarked.keys() or not {*cusp_map.values()} <= {c.id for c in tree.cusps}:
        return f"the cusp map must send exactly {sorted(unmarked)} onto cusps"
    if len({*cusp_map.values()}) < len(cusp_map):
        return "the cusp map must be one to one"
    for c, target in sorted(cusp_map.items()):
        if not symbol_contains(tree.cusp(target).stabilizer, unmarked[c], ctx):
            return f"the image {target} of cusp {c} must contain its stabilizer {unmarked[c]}"
    marked = {c.id for c in edge_tree.cusps} - unmarked.keys()
    if mark_map.keys() != marked:
        return f"the mark map must send exactly {sorted(marked)}"
    kinds, locs = {k for k, _ in mark_map.values()}, [loc for _, loc in mark_map.values()]
    if trace.kind == KIND_FOLD:
        ends = {x for te in tree.internal_edges if image in te.ends for x in te.ends}
        if kinds - {"vertex"} or not set(locs) <= ends - {image}:
            return f"the marks must land on neighbours of {image}"
    elif kinds - {"mark"} or len(set(locs)) < len(locs) or not set(locs) <= {
        c.id for c in tree.cusps if c.marked_point is not None
    }:
        return "the marks must land on distinct marked cusps"
    return None


def _tree(g, vertices, edges, cusps, printed=False) -> ElementaryTree:
    """Vertices are groups, edges ((a, b), group) and cusps (base, group, marked), by
    vertex index. A marked cusp's marked point is its own stabilizer; it folds on attach."""
    vs = tuple(TreeVertex(f"v{i}", h) for i, h in enumerate(vertices))
    es = tuple(
        TreeEdge(f"e{i}", (f"v{a}", f"v{b}"), stab) for i, ((a, b), stab) in enumerate(edges)
    )
    cs = tuple(
        CuspSite(f"c{i}", f"v{base}", stab, stab if marked else None, marked)
        for i, (base, stab, marked) in enumerate(cusps)
    )
    return ElementaryTree(g, vs, es, cs, printed)


def _embed_trace(kind: str, maps: EmbedMaps) -> AttachmentTrace:
    # The iso flavor attaches at the target's marked cusp; the fold flavor at
    # the first cusp the edge tree maps onto.
    site = maps.cusp_map[0][1] if maps.cusp_map else ""
    for _cusp_id, (loc_kind, loc_id) in maps.mark_map:
        if kind != KIND_FOLD and loc_kind == "mark":
            site = loc_id
    return AttachmentTrace(site, kind, embed=maps)


def _builtin_printed(g: GroupSymbol, p: int) -> PrintedEntry | None:
    """The instances printed for residue characteristic 5: D5, D_{10m} and A5,
    each with its gluing of the D5 edge tree."""
    if p != 5:
        return None
    d5 = dihedral(5)
    if g.kind == KIND_DIHEDRAL and (g.n == 5 or g.n % 10 == 0):
        c2 = cyclic(2)
        cusps = [(0, c2, True), (0, c2, False), (0, cyclic(g.n), False)]
        tree = _tree(g, [g], [], cusps, printed=True)
        maps = EmbedMaps((("v0", "v0"),), (("c1", "c1"), ("c2", "c2")), (("c0", ("mark", "c0")),))
        return PrintedEntry(p, tree, ((d5, _embed_trace(KIND_ISO, maps)),))
    if g.kind == KIND_ICOSAHEDRAL:
        cusps = [(0, cyclic(3), False), (1, cyclic(2), False), (1, cyclic(5), False)]
        tree = _tree(g, [g, d5], [((0, 1), d5)], cusps, printed=True)
        maps = EmbedMaps((("v0", "v1"),), (("c1", "c1"), ("c2", "c2")), (("c0", ("vertex", "v0")),))
        return PrintedEntry(p, tree, ((d5, _embed_trace(KIND_FOLD, maps)),))
    return None


# -- extension files ----------------------------------------------------------


def parse_extension(data: Mapping, *, source: str = "<extension>") -> tuple[PrintedEntry, ...]:
    """Parse and validate an extension catalog document (see README for schema).

    Raises CatalogError, naming the entry, for any malformed or invalid entry.
    """
    if not isinstance(data, Mapping) or "entries" not in data:
        raise CatalogError(f"{source}: extension document needs a top-level 'entries' list")
    return _read_list(data, "entries", _read_entry, CatalogError, source)


def _read_entry(raw) -> PrintedEntry:
    """One entry; each part is checked as it is read, so the first broken rule is reported."""
    from .graphs import betti, pair_error  # graphs imports this module

    group = canonicalize(raw["group"])
    e_ctx = json_scalar(raw.get("context", {}), dict, "context")
    p = json_scalar(e_ctx["p"], int, "p")
    if json_scalar(e_ctx.get("char_K", 0), int, "char_K") != 0:
        raise CatalogError("extension entries are char-0 instances")
    ctx = FieldContext(0, p, 1)
    if not is_admissible(group, ctx):
        raise CatalogError(f"{group} is not admissible at char 0, p={p}")
    group_order = order(group, ctx)
    if p > 5 or group_order % p != 0:  # the built-in star tree serves it
        raise CatalogError(
            f"entry for {group} at p={p} is never read (needs p <= 5 dividing its order)"
        )
    vertices = {}
    for vr in _objects(raw["vertices"], "vertices"):
        v = TreeVertex(_id(vr["id"]), canonicalize(vr["group"]))
        if not is_admissible(v.stabilizer, ctx):
            raise CatalogError(f"vertex stabilizer {v.stabilizer} inadmissible")
        vertices[v.id] = v
    if len(vertices) != len(raw["vertices"]) or not vertices:
        raise CatalogError("vertex ids must be unique and non-empty")
    edges = {}
    for er in _objects(raw.get("internal_edges", []), "internal_edges"):
        eid, ends = _id(er["id"]), er["ends"]
        if msg := pair_error(ends, f"edge {eid}: ends"):  # a list of three must not lose a name
            raise CatalogError(msg)
        if not {_id(x) for x in ends} <= vertices.keys():
            raise CatalogError(f"edge {eid} references unknown vertex")
        h = canonicalize(er["group"])
        if not is_admissible(h, ctx):
            raise CatalogError(f"edge {eid}: stabilizer {h} inadmissible")
        for end in (vertices[x].stabilizer for x in ends):
            if not symbol_contains(end, h, ctx):
                raise CatalogError(f"edge {eid}: stabilizer {h} not contained in {end}")
        if eid in edges:
            raise CatalogError("internal edge ids must be unique")
        edges[eid] = TreeEdge(eid, tuple(ends), h)
    if len(edges) != len(vertices) - 1:
        raise CatalogError("underlying graph is not a tree")
    if betti([ed.ends for ed in edges.values()]) != 0:
        raise CatalogError("underlying graph is not connected")
    cusps = {}
    for cr in _objects(raw["cusps"], "cusps"):
        mark = cr.get("marked_point")
        c = CuspSite(_id(cr["id"]), _id(cr["base"]), canonicalize(cr["group"]))
        if c.id in cusps:
            raise CatalogError(f"duplicate cusp id {c.id}")
        if c.base_vertex not in vertices:
            raise CatalogError(f"cusp {c.id} references unknown vertex")
        if c.stabilizer == TRIVIAL:
            raise CatalogError(f"cusp {c.id} has trivial stabilizer")
        if not is_admissible(c.stabilizer, ctx):
            raise CatalogError(f"cusp stabilizer {c.stabilizer} inadmissible")
        if group_order % order(c.stabilizer, ctx) != 0:
            raise CatalogError(f"cusp stabilizer {c.stabilizer} order does not divide |{group}|")
        if mark is not None:
            mark = canonicalize(json_scalar(mark, dict, "marked_point")["group"])
        if mark is not None and not symbol_contains(mark, c.stabilizer, ctx):
            raise CatalogError(f"marked point stabilizer must contain the cusp stabilizer on {c.id}")
        fold = json_scalar(cr.get("fold_on_attach", False), bool, "fold_on_attach")
        cusps[c.id] = c._replace(marked_point=mark, fold_on_attach=fold)
    if len(cusps) != (expect := DEFAULT_CATALOG.boundary_count(group, ctx)):
        raise CatalogError(f"char-0 entry for {group} must have {expect} cusps, got {len(cusps)}")
    traces = []
    for tr in _objects(raw.get("embed_traces", []), "embed_traces"):
        if tr.get("kind") not in (KIND_FOLD, KIND_ISO):
            raise CatalogError("embed trace kind must be fold or iso")
        vertex_map, cusp_map, mark_map = (
            json_scalar(tr.get(k, {}), dict, k) for k in ("vertex_map", "cusp_map", "mark_map")
        )
        for a, mark in mark_map.items():
            if msg := pair_error(mark, f"mark_map {_id(a)}"):
                raise CatalogError(msg)
        maps = EmbedMaps(
            tuple((_id(a), _id(b)) for a, b in vertex_map.items()),
            tuple((_id(a), _id(b)) for a, b in cusp_map.items()),
            tuple((_id(a), (_id(k), _id(loc))) for a, (k, loc) in mark_map.items()),
        )
        traces.append((canonicalize(tr["edge_group"]), _embed_trace(tr["kind"], maps)))
    parts = (tuple(part.values()) for part in (vertices, edges, cusps))
    return PrintedEntry(p, ElementaryTree(group, *parts, printed=True), tuple(traces))


def _id(xid) -> str:
    """``xid`` as it is, if a printable string: realized ids, so report lines, contain it."""
    if not json_scalar(xid, str, f"id {xid!r}").isprintable():
        raise CatalogError(f"id {xid!r} must be printable")
    return xid


def _read_list(data: Mapping, key: str, build, error: type[Exception], source: str) -> tuple:
    """``build`` of each object in the list ``data[key]``, none when it is absent. A shape
    error (a missing key, a JSON value of the wrong kind) or a ValueError is raised as one
    ``error``, prefixed with ``source`` and the place: ``<input>: edges[0]: missing key 'to'``."""
    items, out = None, []
    try:
        items = _objects(data.get(key, []), key)
        for raw in items:
            out.append(build(raw))
    except (KeyError, TypeError, ValueError) as exc:
        place = source if items is None else f"{source}: {key}[{len(out)}]"
        raise error(f"{place}: {_reason(exc)}") from exc
    return tuple(out)


def _reason(exc: Exception) -> str:
    """A shape error as a reason: a missing key reads ``missing key 'k'``."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _objects(items, key: str) -> list:
    """``items`` if it is a list of objects; else TypeError naming the first that is not."""
    for i, item in enumerate(json_scalar(items, list, key)):
        if type(item) is not dict:
            json_scalar(item, dict, f"{key}[{i}]")
    return items


def load_extension_file(path) -> tuple[PrintedEntry, ...]:
    return parse_extension(_read_json(path, CatalogError), source=_shown(path))


def _read_json(path, error: type[Exception]):
    """The JSON document in the UTF-8 file at ``path``; else ``error``, naming the file."""
    name = _shown(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{name}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # e.g. bad UTF-8, deep nesting
        raise error(f"{name}: {exc}") from exc


def _shown(path) -> str:
    """``path`` for a message: a literal when it is unprintable, so the message is one line."""
    return str(path) if str(path).isprintable() else repr(str(path))


DEFAULT_CATALOG = Catalog()

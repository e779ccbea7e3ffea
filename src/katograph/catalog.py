"""The elementary tree catalog: one finite decorated tree per admissible group.

Characteristic p entries follow the classification proposition item by item;
characteristic 0 splits into the generic star shapes (residue characteristic
above 5, or group order prime to it), which are the characteristic-p shapes,
and the printed small-residue instances (the D5 / A5 / D_{10m} family at
residue characteristic 5). Further
small-residue entries load from an extension file; see ``parse_extension``.

All trees and traces are immutable; a Catalog is safe to share freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

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
    ICOSAHEDRAL,
    TRIVIAL,
)


class CatalogError(ValueError):
    """Missing or invalid catalog data for a requested group."""


@dataclass(frozen=True)
class TreeVertex:
    id: str
    stabilizer: GroupSymbol


@dataclass(frozen=True)
class TreeEdge:
    id: str
    ends: tuple[str, str]
    stabilizer: GroupSymbol


@dataclass(frozen=True)
class CuspSite:
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


@dataclass(frozen=True)
class ElementaryTree:
    group: GroupSymbol
    ctx: FieldContext
    vertices: tuple[TreeVertex, ...]
    internal_edges: tuple[TreeEdge, ...]
    cusps: tuple[CuspSite, ...]
    printed: bool = False

    def cusp(self, cusp_id: str) -> CuspSite:
        for c in self.cusps:
            if c.id == cusp_id:
                return c
        raise KeyError(cusp_id)


@dataclass(frozen=True)
class EmbedMaps:
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


@dataclass(frozen=True)
class AttachmentTrace:
    """One admissible gluing of an edge-group tree into a vertex-group tree."""

    edge_group: GroupSymbol
    vertex_group: GroupSymbol
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


@dataclass(frozen=True)
class ExtensionEntry:
    group: GroupSymbol
    p: int
    vertices: tuple[TreeVertex, ...]
    internal_edges: tuple[TreeEdge, ...]
    cusps: tuple[CuspSite, ...]
    embed_traces: tuple["ExtensionEmbedTrace", ...] = ()


@dataclass(frozen=True)
class ExtensionEmbedTrace:
    edge_group: GroupSymbol
    kind: str
    maps: EmbedMaps


class Catalog:
    """Built-in elementary trees plus optional extension entries (read-only)."""

    def __init__(self, extensions: Iterable[ExtensionEntry] = ()):
        self._extensions: dict[tuple[GroupSymbol, int], ExtensionEntry] = {}
        for entry in extensions:
            key = (entry.group, entry.p)
            if key in self._extensions:
                raise CatalogError(f"duplicate extension entry for {entry.group} at p={entry.p}")
            self._extensions[key] = entry

    # -- trees ---------------------------------------------------------------

    def elementary_tree(self, g: GroupSymbol, ctx: FieldContext) -> ElementaryTree:
        violations = validate_in_context(g, ctx)
        if violations:
            raise ContextError("; ".join(violations))
        if g.kind == KIND_TRIVIAL:
            return _tree(g, ctx, [(g,)], [], [])
        if ctx.positive_char or ctx.p > 5 or order(g, ctx) % ctx.p != 0:
            return self._star_tree(g, ctx)
        return self._char_zero_tree(g, ctx)

    def boundary_count(self, g: GroupSymbol, ctx: FieldContext) -> int:
        """Number of cusps of the elementary tree, computed from the catalog rules."""
        # A table of its own rather than len(tree.cusps), for two reasons: it
        # is total on admissible groups that have no tree (C5 and D15 at
        # residue characteristic 5), and it is far cheaper than building one.
        if g.kind == KIND_TRIVIAL:
            return 0
        violations = validate_in_context(g, ctx)
        if violations:
            raise ContextError("; ".join(violations))
        if not ctx.positive_char:
            return 2 if g.kind == KIND_CYCLIC else 3
        if g.kind == KIND_CYCLIC:
            return 2
        if g.kind == KIND_DIHEDRAL:
            return 2 if ctx.p == 2 else 3
        if g.kind == KIND_BOREL:
            return 2 if g.n > 1 else 1
        if g.kind == KIND_PROJ_LINEAR:
            return 2
        if g.kind == KIND_ICOSAHEDRAL:
            return 2 if ctx.p == 3 else 3
        return 3  # T, O

    def _star_tree(self, g: GroupSymbol, ctx: FieldContext) -> ElementaryTree:
        """One-vertex trees: every char-p group, and the generic char-0 groups."""
        p = ctx.p
        if g.kind == KIND_CYCLIC:
            return _tree(g, ctx, [(g,)], [], [(0, g), (0, g)])
        if g.kind == KIND_DIHEDRAL:
            if p == 2:
                # The order-2 generator is parabolic at p=2: its cusp is E_1.
                return _tree(g, ctx, [(g,)], [], [(0, borel(1, 1)), (0, cyclic(g.n))])
            return _tree(g, ctx, [(g,)], [], [(0, cyclic(2)), (0, cyclic(2)), (0, cyclic(g.n))])
        if g.kind == KIND_BOREL:
            if g.n == 1:
                return _tree(g, ctx, [(g,)], [], [(0, g)])
            return _tree(g, ctx, [(g,)], [], [(0, cyclic(g.n)), (0, g)])
        if g.kind == KIND_PROJ_LINEAR:
            inv = pl_invariants(g, ctx)
            bcusp = borel(g.t, inv.n_minus)
            return _tree(
                g, ctx, [(g,)], [],
                [(0, cyclic(inv.n_plus)), (0, bcusp, bcusp, True)],
            )
        if g.kind == KIND_TETRAHEDRAL:
            return _tree(g, ctx, [(g,)], [], [(0, cyclic(2)), (0, cyclic(3)), (0, cyclic(3))])
        if g.kind == KIND_OCTAHEDRAL:
            return _tree(g, ctx, [(g,)], [], [(0, cyclic(2)), (0, cyclic(3)), (0, cyclic(4))])
        if g.kind == KIND_ICOSAHEDRAL:
            if p == 3:
                b = borel(1, 2)
                return _tree(g, ctx, [(g,)], [], [(0, cyclic(5)), (0, b, b, True)])
            return _tree(g, ctx, [(g,)], [], [(0, cyclic(2)), (0, cyclic(3)), (0, cyclic(5))])
        raise CatalogError(f"no star-shaped tree for {g}")

    def _char_zero_tree(self, g: GroupSymbol, ctx: FieldContext) -> ElementaryTree:
        """Residue characteristic p <= 5 dividing the group order."""
        p = ctx.p
        entry = self._extensions.get((g, p))
        if entry is not None:
            return _tree_from_entry(entry, ctx)
        built = self._char_zero_printed(g, ctx)
        if built is not None:
            return built
        raise CatalogError(
            f"catalog entry required: {g} at char 0 with residue characteristic {p} "
            "(group order divisible by p; supply an extension catalog entry)"
        )

    def _char_zero_printed(self, g: GroupSymbol, ctx: FieldContext) -> ElementaryTree | None:
        """The instances printed for residue characteristic 5: D5, D_{10m}, A5."""
        if ctx.p != 5:
            return None
        if g.kind == KIND_DIHEDRAL and (g.n == 5 or g.n % 10 == 0):
            c2 = cyclic(2)
            return _tree(
                g, ctx, [(g,)], [],
                [(0, c2, c2, True), (0, c2), (0, cyclic(g.n))],
                printed=True,
            )
        if g.kind == KIND_ICOSAHEDRAL:
            d5 = dihedral(5)
            return _tree(
                g, ctx,
                [(g,), (d5,)],
                [((0, 1), d5)],
                [(0, cyclic(3)), (1, cyclic(2)), (1, cyclic(5))],
                printed=True,
            )
        return None

    # -- traces ---------------------------------------------------------------

    def attachment_traces(
        self, edge_group: GroupSymbol, vertex_group: GroupSymbol, ctx: FieldContext
    ) -> tuple[AttachmentTrace, ...]:
        """All admissible gluings of T*(edge_group) into T*(vertex_group).

        The kind follows the case analysis of the gluing proofs: one-cusped
        edge groups embed injectively; two-cusped ones fold at a matching
        site (at its marked point when the catalog marks one) unless the
        target tree is Borel-form and extends the edge group, which is the
        tree-isomorphism case. Printed noncyclic edge groups use explicit
        embed maps. Returns the empty tuple when nothing matches.
        """
        for g in (edge_group, vertex_group):
            if not is_admissible(g, ctx):
                raise ContextError(f"{g} is not admissible in this context")
        if edge_group.kind == KIND_TRIVIAL:
            raise SymbolError("trivial edges do not attach through the catalog")
        if ctx.positive_char:
            if not is_borel_form(edge_group):
                raise SymbolError(
                    f"edge group {edge_group} is not of Borel form (required in char p)"
                )
            return self._char_p_traces(edge_group, vertex_group, ctx)
        if edge_group.kind == KIND_CYCLIC:
            return self._cyclic_traces(edge_group, vertex_group, ctx)
        return self._embed_traces(edge_group, vertex_group, ctx)

    def _char_p_traces(self, e: GroupSymbol, v: GroupSymbol, ctx: FieldContext):
        te, ne = borel_params(e)
        tree_v = self.elementary_tree(v, ctx)
        out: list[AttachmentTrace] = []
        if ne == 1:
            # One-cusped edge tree: injective into any Borel-extending E-site.
            for c in tree_v.cusps:
                if is_borel_form(c.stabilizer) and borel_extends(e, c.stabilizer):
                    tb, nb = borel_params(c.stabilizer)
                    if nb == 1:
                        out.append(_injective_trace(e, v, c))
            return tuple(out)
        if is_borel_form(v) and v.kind != KIND_TRIVIAL and borel_extends(e, v):
            out.append(_iso_trace(e, v, tree_v))
            return tuple(out)
        if te >= 1:
            for c in tree_v.cusps:
                if c.stabilizer == e and c.marked_point is not None:
                    out.append(_fold_trace(e, v, c))
            return tuple(out)
        return self._cyclic_traces(e, v, ctx, tree_v)

    def _cyclic_traces(self, e, v, ctx, tree_v=None):
        if tree_v is None:
            tree_v = self.elementary_tree(v, ctx)
        if is_borel_form(v) and v.kind != KIND_TRIVIAL:
            if borel_extends(e, v):
                return (_iso_trace(e, v, tree_v),)
            return ()
        out = []
        for c in tree_v.cusps:
            if c.stabilizer == e:
                out.append(_fold_trace(e, v, c))
        return tuple(out)

    def _embed_traces(self, e: GroupSymbol, v: GroupSymbol, ctx: FieldContext):
        if ctx.positive_char or ctx.p > 5:
            return ()
        entry = self._extensions.get((v, ctx.p))
        if entry is not None:
            out = []
            for spec in entry.embed_traces:
                if spec.edge_group == e:
                    out.append(_embed_trace(e, v, spec.kind, spec.maps))
            if out:
                return tuple(out)
        return _builtin_embed_traces(e, v, ctx)


def _tree(g, ctx, vertices, edges, cusps, printed=False) -> ElementaryTree:
    vs = tuple(TreeVertex(f"v{i}", spec[0]) for i, spec in enumerate(vertices))
    es = tuple(
        TreeEdge(f"e{i}", (f"v{a}", f"v{b}"), stab) for i, ((a, b), stab) in enumerate(edges)
    )
    cs = []
    for i, spec in enumerate(cusps):
        base, stab = spec[0], spec[1]
        mark = spec[2] if len(spec) > 2 else None
        fold = spec[3] if len(spec) > 3 else False
        cs.append(CuspSite(f"c{i}", f"v{base}", stab, mark, fold))
    return ElementaryTree(g, ctx, vs, es, tuple(cs), printed)


def _injective_trace(e, v, site: CuspSite) -> AttachmentTrace:
    return AttachmentTrace(edge_group=e, vertex_group=v, site=site.id, kind=KIND_INJECTIVE)


def _fold_trace(e, v, site: CuspSite) -> AttachmentTrace:
    return AttachmentTrace(
        edge_group=e,
        vertex_group=v,
        site=site.id,
        kind=KIND_FOLD,
        fold_at_mark=site.marked_point is not None and site.fold_on_attach,
    )


def _iso_trace(e, v, tree_v: ElementaryTree) -> AttachmentTrace:
    low, full = tree_v.cusps[0], tree_v.cusps[1]
    return AttachmentTrace(
        edge_group=e, vertex_group=v, site=full.id, kind=KIND_ISO, partner_site=low.id
    )


def _embed_trace(e, v, kind: str, maps: EmbedMaps) -> AttachmentTrace:
    # The iso flavor attaches at the target's marked cusp; the fold flavor at
    # the first cusp the edge tree maps onto.
    site = maps.cusp_map[0][1] if maps.cusp_map else ""
    for _cusp_id, (loc_kind, loc_id) in maps.mark_map:
        if kind != KIND_FOLD and loc_kind == "mark":
            site = loc_id
    return AttachmentTrace(edge_group=e, vertex_group=v, site=site, kind=kind, embed=maps)


def _builtin_embed_traces(e: GroupSymbol, v: GroupSymbol, ctx: FieldContext):
    """The printed residue-characteristic-5 gluings of the triangle family."""
    if ctx.p != 5 or e != dihedral(5):
        return ()
    if v == ICOSAHEDRAL:
        maps = EmbedMaps(
            vertex_map=(("v0", "v1"),),
            cusp_map=(("c1", "c1"), ("c2", "c2")),
            mark_map=(("c0", ("vertex", "v0")),),
        )
        return (_embed_trace(e, v, KIND_FOLD, maps),)
    if v.kind == KIND_DIHEDRAL and (v.n == 5 or v.n % 10 == 0):
        maps = EmbedMaps(
            vertex_map=(("v0", "v0"),),
            cusp_map=(("c1", "c1"), ("c2", "c2")),
            mark_map=(("c0", ("mark", "c0")),),
        )
        return (_embed_trace(e, v, KIND_ISO, maps),)
    return ()


# -- extension files ----------------------------------------------------------


def parse_extension(data: Mapping, *, source: str = "<extension>") -> tuple[ExtensionEntry, ...]:
    """Parse and validate an extension catalog document (see README for schema)."""
    if not isinstance(data, Mapping) or "entries" not in data:
        raise CatalogError(f"{source}: extension document needs a top-level 'entries' list")
    entries = []
    for i, raw in enumerate(data["entries"]):
        where = f"{source}: entries[{i}]"
        try:
            group = canonicalize(raw["group"])
            e_ctx = raw.get("context", {})
            char_K = int(e_ctx.get("char_K", 0))
            p = int(e_ctx["p"])
        except (KeyError, SymbolError, TypeError, ValueError) as exc:
            raise CatalogError(f"{where}: {exc}") from exc
        if char_K != 0:
            raise CatalogError(f"{where}: extension entries are char-0 instances")
        vertices = tuple(
            TreeVertex(str(vr["id"]), canonicalize(vr["group"])) for vr in raw["vertices"]
        )
        edges = tuple(
            TreeEdge(str(er["id"]), (str(er["ends"][0]), str(er["ends"][1])), canonicalize(er["group"]))
            for er in raw.get("internal_edges", [])
        )
        cusps = []
        for cr in raw["cusps"]:
            mark = cr.get("marked_point")
            cusps.append(
                CuspSite(
                    str(cr["id"]),
                    str(cr["base"]),
                    canonicalize(cr["group"]),
                    canonicalize(mark["group"]) if mark else None,
                    bool(cr.get("fold_on_attach", False)),
                )
            )
        traces = []
        for tr in raw.get("embed_traces", []):
            if tr.get("kind") not in (KIND_FOLD, KIND_ISO):
                raise CatalogError(f"{where}: embed trace kind must be fold or iso")
            traces.append(
                ExtensionEmbedTrace(
                    canonicalize(tr["edge_group"]),
                    tr["kind"],
                    EmbedMaps(
                        tuple((str(a), str(b)) for a, b in tr.get("vertex_map", {}).items()),
                        tuple((str(a), str(b)) for a, b in tr.get("cusp_map", {}).items()),
                        tuple(
                            (str(a), (str(kind_), str(loc)))
                            for a, (kind_, loc) in tr.get("mark_map", {}).items()
                        ),
                    ),
                )
            )
        entry = ExtensionEntry(group, p, vertices, edges, tuple(cusps), tuple(traces))
        _validate_entry(entry, where)
        entries.append(entry)
    return tuple(entries)


def load_extension_file(path) -> tuple[ExtensionEntry, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_extension(data, source=str(path))


def _validate_entry(entry: ExtensionEntry, where: str) -> None:
    ctx = FieldContext(0, entry.p, 1)
    if not is_admissible(entry.group, ctx):
        raise CatalogError(f"{where}: {entry.group} is not admissible at char 0, p={entry.p}")
    vids = {v.id for v in entry.vertices}
    if len(vids) != len(entry.vertices) or not entry.vertices:
        raise CatalogError(f"{where}: vertex ids must be unique and non-empty")
    # Tree check: connected and acyclic over the internal edges.
    adj: dict[str, list[str]] = {v: [] for v in vids}
    for ed in entry.internal_edges:
        a, b = ed.ends
        if a not in vids or b not in vids:
            raise CatalogError(f"{where}: edge {ed.id} references unknown vertex")
        adj[a].append(b)
        adj[b].append(a)
    if len(entry.internal_edges) != len(vids) - 1:
        raise CatalogError(f"{where}: underlying graph is not a tree")
    seen = set()
    stack = [next(iter(vids))]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(adj[x])
    if seen != vids:
        raise CatalogError(f"{where}: underlying graph is not connected")
    expect = 2 if entry.group.kind == KIND_CYCLIC else 3
    if len(entry.cusps) != expect:
        raise CatalogError(
            f"{where}: char-0 entry for {entry.group} must have {expect} cusps, got {len(entry.cusps)}"
        )
    group_order = order(entry.group, ctx)
    cids = set()
    for c in entry.cusps:
        if c.id in cids:
            raise CatalogError(f"{where}: duplicate cusp id {c.id}")
        cids.add(c.id)
        if c.base_vertex not in vids:
            raise CatalogError(f"{where}: cusp {c.id} references unknown vertex")
        if c.stabilizer == TRIVIAL:
            raise CatalogError(f"{where}: cusp {c.id} has trivial stabilizer")
        if not is_admissible(c.stabilizer, ctx):
            raise CatalogError(f"{where}: cusp stabilizer {c.stabilizer} inadmissible")
        if group_order % order(c.stabilizer, ctx) != 0:
            raise CatalogError(
                f"{where}: cusp stabilizer {c.stabilizer} order does not divide |{entry.group}|"
            )
        if c.marked_point is not None and not symbol_contains(c.marked_point, c.stabilizer, ctx):
            raise CatalogError(
                f"{where}: marked point stabilizer must contain the cusp stabilizer on {c.id}"
            )
    for v in entry.vertices:
        if not is_admissible(v.stabilizer, ctx):
            raise CatalogError(f"{where}: vertex stabilizer {v.stabilizer} inadmissible")


def _tree_from_entry(entry: ExtensionEntry, ctx: FieldContext) -> ElementaryTree:
    return ElementaryTree(
        entry.group, ctx, entry.vertices, entry.internal_edges, entry.cusps, printed=True
    )


DEFAULT_CATALOG = Catalog()

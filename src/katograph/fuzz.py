"""Random admissible inputs for the formula-agreement suite.

The generator is constructive: it tracks the free attachment sites of every
placed elementary tree and only emits edges whose gluings exist, with
explicit site hints wherever a site choice is made. Everything is driven by
a caller-supplied random.Random, so corpora are reproducible from a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .catalog import Catalog, CatalogError, DEFAULT_CATALOG
from .graphs import GenusEdge, InputEdge, InputGraphOfGroups, InputVertex, _UnionFind
from .groups import (
    ContextError,
    FieldContext,
    GroupSymbol,
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    TRIVIAL,
    borel,
    borel_params,
    cyclic,
    dihedral,
    is_admissible,
    is_borel_form,
    pl_invariants,
    proj_linear,
)


@dataclass
class _Site:
    cusp_id: str
    flavor: str  # "cyclic" | "e" | "markB"
    stab: GroupSymbol
    used: bool = False


@dataclass
class _Vert:
    id: str
    group: GroupSymbol
    sites: list[_Site] = field(default_factory=list)
    iso_open: bool = False


def random_context(rng: random.Random) -> FieldContext:
    roll = rng.random()
    if roll < 0.35:
        p = rng.choice([7, 11, 13])
        return FieldContext(0, p, 1)
    if roll < 0.5:
        return FieldContext(0, 5, 1)
    p = rng.choice([2, 3, 5, 7])
    m = rng.randint(1, 4)
    return FieldContext(p, p, m)


def random_input(
    rng: random.Random,
    max_vertices: int = 8,
    max_genus: int = 3,
    catalog: Catalog = DEFAULT_CATALOG,
    ctx: FieldContext | None = None,
) -> InputGraphOfGroups:
    if ctx is None:
        ctx = random_context(rng)
    gen = _Generator(rng, ctx, catalog)
    return gen.build(max_vertices, max_genus)


class _Generator:
    def __init__(self, rng: random.Random, ctx: FieldContext, catalog: Catalog):
        self.rng = rng
        self.ctx = ctx
        self.catalog = catalog
        self.verts: list[_Vert] = []
        self.edges: list[InputEdge] = []
        self.next_v = 0
        self.next_e = 0

    # -- plumbing --

    def new_vertex(self, group: GroupSymbol) -> _Vert:
        vid = f"v{self.next_v}"
        self.next_v += 1
        vert = _Vert(vid, group)
        if group == TRIVIAL:
            pass
        elif is_borel_form(group):
            vert.iso_open = True
        else:
            tree = self.catalog.elementary_tree(group, self.ctx)
            for c in tree.cusps:
                params = borel_params(c.stabilizer) if is_borel_form(c.stabilizer) else None
                if params is not None and params[1] == 1:
                    flavor = "e"
                elif (
                    c.marked_point is not None
                    and self.ctx.positive_char
                    and params is not None
                    and params[0] >= 1
                ):
                    flavor = "markB"
                elif c.marked_point is not None:
                    continue  # printed marked cusps are reserved for embed gluings
                else:
                    flavor = "cyclic"
                vert.sites.append(_Site(c.id, flavor, c.stabilizer))
        self.verts.append(vert)
        return vert

    def new_edge(self, a: _Vert, b: _Vert, group: GroupSymbol | None, hints=(None, None), derive=False):
        eid = f"e{self.next_e}"
        self.next_e += 1
        self.edges.append(InputEdge(eid, (a.id, b.id), group, derive, hints))

    # -- vertex menus --

    def seed_group(self) -> GroupSymbol:
        picks = self.seed_menu()
        return self.rng.choice(picks)

    def seed_menu(self) -> list[GroupSymbol]:
        ctx, rng = self.ctx, self.rng
        out: list[GroupSymbol] = [TRIVIAL]
        if not ctx.positive_char:
            if ctx.p <= 5:
                # Residue characteristic 5: the printed triangle family plus
                # groups of order prime to 5.
                out += [ICOSAHEDRAL, dihedral(5), dihedral(10 * rng.randint(1, 3))]
                out += [cyclic(k) for k in (2, 3, 4, 6) ]
                out += [dihedral(rng.choice([2, 3, 4, 6])), TETRAHEDRAL, OCTAHEDRAL]
            else:
                out += [cyclic(rng.randint(2, 12)), dihedral(rng.randint(2, 12))]
                out += [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
            return [g for g in out if is_admissible(g, ctx)]
        p, m = ctx.p, ctx.m
        n = rng.randint(2, 30)
        while n % p == 0:
            n += 1
        out.append(cyclic(n))
        out.append(self.random_dihedral())
        out.append(self.random_borel())
        t = rng.choice(_divisors(m))
        out.append(proj_linear("PGL", t))
        if p != 2:
            out.append(proj_linear("PSL", t))
        out += [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
        return [g for g in out if g is not None and is_admissible(g, ctx)]

    def random_dihedral(self) -> GroupSymbol | None:
        ctx, rng = self.ctx, self.rng
        p, m = ctx.p, ctx.m
        if p == 2:
            return dihedral(rng.choice([3, 5, 7, 9, 11, 15]))
        pool = [
            n
            for n in range(2, min(p ** m + 2, 60))
            if (p ** m - 1) % n == 0 or (p ** m + 1) % n == 0
        ]
        return dihedral(rng.choice(pool)) if pool else None

    def random_borel(self) -> GroupSymbol:
        ctx, rng = self.ctx, self.rng
        s = rng.randint(1, ctx.m)
        divs = _divisors(ctx.p ** math.gcd(s, ctx.m) - 1)
        n = rng.choice(divs)
        return borel(s, n)

    def cyclic_partners(self, k: int) -> list[tuple[GroupSymbol, str]]:
        """New-vertex groups with a free plain cyclic cusp of order k: (group, site id)."""
        ctx = self.ctx
        out: list[tuple[GroupSymbol, str]] = []
        candidates: list[GroupSymbol] = []
        if k == 2:
            candidates += [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
            candidates += [dihedral(n) for n in (2, 3, 4, 5, 6, 7, 8, 12)]
        if k == 3:
            candidates += [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
        if k == 4:
            candidates.append(OCTAHEDRAL)
        if k == 5:
            candidates.append(ICOSAHEDRAL)
        if k >= 2:
            candidates.append(dihedral(k))
        if ctx.positive_char:
            for t in _divisors(ctx.m):
                for variant in ("PGL",) if ctx.p == 2 else ("PGL", "PSL"):
                    g = proj_linear(variant, t)
                    if is_admissible(g, ctx) and pl_invariants(g, ctx).n_plus == k:
                        candidates.append(g)
        for g in candidates:
            if not is_admissible(g, ctx):
                continue
            try:
                tree = self.catalog.elementary_tree(g, ctx)
            except (CatalogError, ContextError):
                continue
            for c in tree.cusps:
                if c.marked_point is None and c.stabilizer == cyclic(k):
                    out.append((g, c.id))
                    break
        return out

    # -- growth moves --

    def grow_from_site(self, vert: _Vert, site: _Site) -> bool:
        rng, ctx = self.rng, self.ctx
        if site.flavor == "cyclic":
            k = site.stab.n
            partners = self.cyclic_partners(k)
            can_absorb = True
            try:
                self.catalog.elementary_tree(cyclic(k), ctx)
            except (CatalogError, ContextError):
                can_absorb = False
            if can_absorb and (rng.random() < 0.2 or not partners):
                w = self.new_vertex(cyclic(k))
                w.iso_open = False
                self.new_edge(vert, w, cyclic(k), (site.cusp_id, None))
            elif partners:
                g, target_site = rng.choice(partners)
                w = self.new_vertex(g)
                for s in w.sites:
                    if s.cusp_id == target_site:
                        s.used = True
                self.new_edge(vert, w, cyclic(k), (site.cusp_id, target_site))
            else:
                site.used = True  # nothing attachable here; close the site
                return False
            site.used = True
            return True
        if site.flavor == "e":
            # Equal-rank edges keep the generation property on both endpoints.
            t = borel_params(site.stab)[0]
            w = self.new_vertex(borel(t, 1))
            w.iso_open = False
            self.new_edge(vert, w, borel(t, 1), (site.cusp_id, None))
            site.used = True
            return True
        if site.flavor == "markB":
            t, n = borel_params(site.stab)
            p, m = ctx.p, ctx.m
            mult = [
                j
                for j in range(t, m + 1)
                if j % t == 0 and (p ** m - 1) % n == 0
            ]
            if not mult:
                site.used = True
                return False
            s = rng.choice(mult)
            w = self.new_vertex(borel(s, n))
            w.iso_open = False
            self.new_edge(vert, w, borel(t, n), (site.cusp_id, None))
            site.used = True
            return True
        return False

    def grow_from_iso(self, vert: _Vert) -> bool:
        """Attach an edge to a Borel-form vertex through the tree isomorphism."""
        rng, ctx = self.rng, self.ctx
        s, n = borel_params(vert.group)
        if n == 1:
            # E_s vertex: one-cusped; glue an equal-rank E edge injectively.
            w = self.new_vertex(borel(s, 1))
            w.iso_open = False
            self.new_edge(vert, w, borel(s, 1))
            vert.iso_open = False
            return True
        choices = [d for d in _divisors(s) if (ctx.p ** d - 1) % n == 0] if s else []
        t = rng.choice([0] + choices) if choices else 0
        edge_group = borel(t, n)
        partner_pl = None
        if t >= 1 and ctx.positive_char:
            for variant in ("PGL",) if ctx.p == 2 else ("PGL", "PSL"):
                g = proj_linear(variant, t)
                if is_admissible(g, ctx) and pl_invariants(g, ctx).n_minus == n:
                    partner_pl = g
                    break
        if partner_pl is not None and rng.random() < 0.7:
            w = self.new_vertex(partner_pl)
            for ws in w.sites:
                if ws.flavor == "markB":
                    ws.used = True
            self.new_edge(vert, w, edge_group)
        else:
            w = self.new_vertex(edge_group if t >= 1 else cyclic(n))
            w.iso_open = False
            self.new_edge(vert, w, edge_group if t >= 1 else cyclic(n))
        vert.iso_open = False
        return True

    def add_triangle(self) -> None:
        """The printed residue-5 gluing: A5 joined to D_{10m} along D5."""
        m = self.rng.randint(1, 3)
        a = self.new_vertex(ICOSAHEDRAL)
        d = self.new_vertex(dihedral(10 * m))
        self.new_edge(a, d, dihedral(5))
        # The embed identifies the A5 tree's 2- and 5-cusps with the partner
        # tree's; only the partner side keeps them attachable.
        for s in a.sites:
            if s.cusp_id in ("c1", "c2"):
                s.used = True

    # -- main loop --

    def build(self, max_vertices: int, max_genus: int) -> InputGraphOfGroups:
        rng, ctx = self.rng, self.ctx
        n_components = rng.randint(1, 2)
        component_roots: list[_Vert] = []
        budget = rng.randint(1, max_vertices)
        for _ in range(n_components):
            if len(self.verts) >= budget:
                break
            start = len(self.verts)
            if (
                not ctx.positive_char
                and ctx.p == 5
                and rng.random() < 0.6
                and len(self.verts) + 2 <= budget
            ):
                self.add_triangle()
            else:
                self.new_vertex(self.seed_group())
            component_roots.append(self.verts[start])
            for _ in range(rng.randint(0, 4)):
                if len(self.verts) >= budget:
                    break
                opts: list[tuple[_Vert, _Site | None]] = []
                for v in self.verts[start:]:
                    if v.iso_open:
                        opts.append((v, None))
                    for s in v.sites:
                        if not s.used:
                            opts.append((v, s))
                if not opts:
                    break
                v, s = rng.choice(opts)
                if s is None:
                    self.grow_from_iso(v)
                else:
                    self.grow_from_site(v, s)
        if not self.verts:
            self.new_vertex(TRIVIAL)
            component_roots.append(self.verts[0])
        for a, b in zip(component_roots, component_roots[1:]):
            self.new_edge(a, b, TRIVIAL)
        uf = _UnionFind()
        for v in self.verts:
            uf.add(v.id)
        for e in self.edges:
            uf.union(*e.ends)
        genus_edges = []
        for i in range(rng.randint(0, max_genus)):
            a = rng.choice(self.verts)
            b = rng.choice(self.verts)
            if uf.find(a.id) == uf.find(b.id):
                genus_edges.append(GenusEdge(f"g{i}", (a.id, b.id)))
        return InputGraphOfGroups(
            ctx,
            tuple(InputVertex(v.id, v.group) for v in self.verts),
            tuple(self.edges),
            tuple(genus_edges),
        )


def _divisors(n: int) -> list[int]:
    if n <= 0:
        return [1]
    return [d for d in range(1, n + 1) if n % d == 0]

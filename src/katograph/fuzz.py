"""Random admissible inputs for the formula-agreement suite.

The generator is constructive: it tracks the free attachment sites of every
placed elementary tree and only emits edges whose gluings exist, with
explicit site hints wherever a site choice is made. Each growth move first
closes the site or tree isomorphism it grows from. Everything is driven by a
caller-supplied random.Random, so corpora are reproducible from a seed.
"""

from __future__ import annotations

import math
import random

from .catalog import CatalogError, DEFAULT_CATALOG
from .graphs import GenusEdge, InputEdge, InputGraphOfGroups, InputVertex
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


class _Site:
    __slots__ = ("cusp_id", "flavor", "stab", "used")

    def __init__(self, cusp_id: str, flavor: str, stab: GroupSymbol):
        self.cusp_id = cusp_id
        self.flavor = flavor  # "cyclic" | "e" | "markB"
        self.stab = stab
        self.used = False


class _Vert:
    __slots__ = ("id", "group", "sites", "iso_open")

    def __init__(self, id: str, group: GroupSymbol):
        self.id = id
        self.group = group
        self.sites: list[_Site] = []
        self.iso_open = False


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


MAX_VERTICES = 8
MAX_GENUS = 3


def random_input(rng: random.Random, ctx: FieldContext | None = None) -> InputGraphOfGroups:
    if ctx is None:
        ctx = random_context(rng)
    return _Generator(rng, ctx).build()


class _Generator:
    def __init__(self, rng: random.Random, ctx: FieldContext):
        self.rng = rng
        self.ctx = ctx
        self.verts: list[_Vert] = []
        self.edges: list[InputEdge] = []

    # -- plumbing --

    def new_vertex(self, group: GroupSymbol) -> _Vert:
        vert = _Vert(f"v{len(self.verts)}", group)
        if not is_borel_form(group):
            tree = DEFAULT_CATALOG.elementary_tree(group, self.ctx)
            # Every cusp is of Borel form, and every char-p marked cusp is B(t, n), t >= 1.
            for c in tree.cusps:
                if borel_params(c.stabilizer)[1] == 1:
                    flavor = "e"
                elif c.marked_point is not None and self.ctx.positive_char:
                    flavor = "markB"
                elif c.marked_point is not None:
                    continue  # printed marked cusps are reserved for embed gluings
                else:
                    flavor = "cyclic"
                vert.sites.append(_Site(c.id, flavor, c.stabilizer))
        self.verts.append(vert)
        return vert

    def new_edge(self, a: _Vert, b: _Vert, group: GroupSymbol, hints=(None, None)) -> None:
        self.edges.append(InputEdge(f"e{len(self.edges)}", (a.id, b.id), group, site_hints=hints))

    # -- vertex menus --

    def seed_menu(self) -> list[GroupSymbol]:
        ctx, rng = self.ctx, self.rng
        out: list[GroupSymbol] = [TRIVIAL]
        if not ctx.positive_char:
            if ctx.p <= 5:
                # Residue characteristic 5: the printed triangle family plus
                # groups of order prime to 5.
                out += [ICOSAHEDRAL, dihedral(5), dihedral(10 * rng.randint(1, 3))]
                out += [cyclic(k) for k in (2, 3, 4, 6)]
                out += [dihedral(rng.choice([2, 3, 4, 6])), TETRAHEDRAL, OCTAHEDRAL]
            else:
                out += [cyclic(rng.randint(2, 12)), dihedral(rng.randint(2, 12))]
                out += [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
            return [g for g in out if is_admissible(g, ctx)]
        n = rng.randint(2, 30)
        while n % ctx.p == 0:
            n += 1
        out += [cyclic(n), self.random_dihedral(), self.random_borel()]
        t = rng.choice(_divisors(ctx.m))
        out += self.pl_groups([t])
        out += [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
        return [g for g in out if is_admissible(g, ctx)]

    def random_dihedral(self) -> GroupSymbol:
        ctx, rng = self.ctx, self.rng
        p, m = ctx.p, ctx.m
        if p == 2:
            return dihedral(rng.choice([3, 5, 7, 9, 11, 15]))
        # Never empty: for odd p, 2 divides p^m + 1.
        pool = [
            n
            for n in range(2, min(p ** m + 2, 60))
            if (p ** m - 1) % n == 0 or (p ** m + 1) % n == 0
        ]
        return dihedral(rng.choice(pool))

    def random_borel(self) -> GroupSymbol:
        ctx, rng = self.ctx, self.rng
        s = rng.randint(1, ctx.m)
        divs = _divisors(ctx.p ** math.gcd(s, ctx.m) - 1)
        n = rng.choice(divs)
        return borel(s, n)

    def pl_groups(self, ts: list[int]) -> list[GroupSymbol]:
        """PGL2(p^t), then PSL2(p^t), for each t in ts; ``is_admissible`` decides which
        exist, so PSL2 (which is PGL2 at p = 2) never appears there."""
        groups = [proj_linear(variant, t) for t in ts for variant in ("PGL", "PSL")]
        return [g for g in groups if is_admissible(g, self.ctx)]

    def cyclic_partners(self, k: int) -> list[tuple[GroupSymbol, str]]:
        """New-vertex groups with a free plain cyclic cusp of order k: (group, site id)."""
        ctx = self.ctx
        out: list[tuple[GroupSymbol, str]] = []
        candidates = [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL]
        if k == 2:
            candidates += [dihedral(n) for n in (2, 3, 4, 5, 6, 7, 8, 12)]
        candidates.append(dihedral(k))
        if ctx.positive_char:
            pl = self.pl_groups(_divisors(ctx.m))
            candidates += [g for g in pl if pl_invariants(g, ctx).n_plus == k]
        for g in candidates:
            try:
                tree = DEFAULT_CATALOG.elementary_tree(g, ctx)
            except (CatalogError, ContextError):
                continue
            for c in tree.cusps:
                if c.marked_point is None and c.stabilizer == cyclic(k):
                    out.append((g, c.id))
                    break
        return out

    # -- growth moves --

    def grow_from_site(self, vert: _Vert, site: _Site) -> None:
        """Close the site, then attach a new vertex there if any group fits."""
        site.used = True
        rng, ctx = self.rng, self.ctx
        if site.flavor == "cyclic":
            k = site.stab.n
            partners = self.cyclic_partners(k)
            can_absorb = True
            try:
                DEFAULT_CATALOG.elementary_tree(cyclic(k), ctx)
            except (CatalogError, ContextError):
                can_absorb = False
            if can_absorb and (rng.random() < 0.2 or not partners):
                w = self.new_vertex(cyclic(k))
                self.new_edge(vert, w, cyclic(k), (site.cusp_id, None))
            elif partners:
                g, target_site = rng.choice(partners)
                w = self.new_vertex(g)
                for s in w.sites:
                    if s.cusp_id == target_site:
                        s.used = True
                self.new_edge(vert, w, cyclic(k), (site.cusp_id, target_site))
        elif site.flavor == "e":
            # Equal-rank edges keep the generation property on both endpoints.
            t = borel_params(site.stab)[0]
            w = self.new_vertex(borel(t, 1))
            self.new_edge(vert, w, borel(t, 1), (site.cusp_id, None))
        else:  # "markB": a Borel of any rank that t divides
            t, n = borel_params(site.stab)
            multiples = range(t, ctx.m + 1, t)
            if multiples and (ctx.p ** ctx.m - 1) % n == 0:
                s = rng.choice(multiples)
                w = self.new_vertex(borel(s, n))
                self.new_edge(vert, w, borel(t, n), (site.cusp_id, None))

    def grow_from_iso(self, vert: _Vert) -> None:
        """Close the tree isomorphism of a Borel-form vertex by attaching an edge through it."""
        vert.iso_open = False
        rng, ctx = self.rng, self.ctx
        s, n = borel_params(vert.group)
        if n == 1:
            # E_s vertex: one-cusped; glue an equal-rank E edge injectively.
            w = self.new_vertex(borel(s, 1))
            self.new_edge(vert, w, borel(s, 1))
            return
        choices = [d for d in _divisors(s) if (ctx.p ** d - 1) % n == 0]
        t = rng.choice([0] + choices) if choices else 0
        edge_group = borel(t, n)
        pl = self.pl_groups([t]) if t >= 1 else []
        partners = [g for g in pl if pl_invariants(g, ctx).n_minus == n]
        if partners and rng.random() < 0.7:
            w = self.new_vertex(partners[0])
            for ws in w.sites:
                if ws.flavor == "markB":
                    ws.used = True
        else:
            w = self.new_vertex(edge_group)
        self.new_edge(vert, w, edge_group)

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

    def build(self) -> InputGraphOfGroups:
        rng, ctx = self.rng, self.ctx
        n_components = rng.randint(1, 2)
        component_roots: list[_Vert] = []
        budget = rng.randint(1, MAX_VERTICES)
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
                seed = self.new_vertex(rng.choice(self.seed_menu()))
                # A Borel-form seed grows through its tree isomorphism.
                seed.iso_open = seed.group != TRIVIAL and is_borel_form(seed.group)
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
        for a, b in zip(component_roots, component_roots[1:]):
            self.new_edge(a, b, TRIVIAL)
        # The trivial connectors above make the input connected, so any two
        # vertices close a loop.
        genus_edges = []
        for i in range(rng.randint(0, MAX_GENUS)):
            a = rng.choice(self.verts)
            b = rng.choice(self.verts)
            genus_edges.append(GenusEdge(f"g{i}", (a.id, b.id)))
        return InputGraphOfGroups(
            ctx,
            tuple(InputVertex(v.id, v.group) for v in self.verts),
            tuple(self.edges),
            tuple(genus_edges),
        )


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]

"""Symbolic arithmetic over Dickson's classification of finite subgroups of PGL2.

Group symbols are immutable and always stored in canonical form:

* ``B(0, n)`` is spelled ``Cyclic(n)``, ``Cyclic(1)`` is spelled ``Trivial``;
* ``B(t, 1)`` is the elementary abelian group ``E_t`` (kept as a Borel symbol);
* ``Dihedral(1)`` is rejected outright (it is ``Cyclic(2)``).

Symbols and field contexts are named tuples, compared and hashed by value, so
a symbol equals the plain tuple of its fields and symbols can be ordered and
iterated. Everything here is a pure function of its arguments; no state is shared.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import NamedTuple, Union

KIND_TRIVIAL = "trivial"
KIND_CYCLIC = "cyclic"
KIND_DIHEDRAL = "dihedral"
KIND_BOREL = "borel"
KIND_PROJ_LINEAR = "proj_linear"
KIND_TETRAHEDRAL = "tetrahedral"
KIND_OCTAHEDRAL = "octahedral"
KIND_ICOSAHEDRAL = "icosahedral"

# Each polyhedral group's order, and the n of its subgroups C_n and D_n.
_POLYHEDRAL = {
    KIND_TETRAHEDRAL: (12, (2, 3), (2,)),
    KIND_OCTAHEDRAL: (24, (2, 3, 4), (2, 3, 4)),
    KIND_ICOSAHEDRAL: (60, (2, 3, 5), (2, 3, 5)),
}


class SymbolError(ValueError):
    """Raised for malformed or non-canonicalizable group descriptions."""


class ContextError(ValueError):
    """Raised when an operation is applied to a group inadmissible in its context."""


class _Field(NamedTuple):
    char_K: int
    p: int
    m: int = 1


class FieldContext(_Field):
    """Characteristic data of the base field.

    ``char_K`` is 0 or the prime ``p``; ``p`` is the residue characteristic;
    ``m`` is the residue degree (groups in characteristic p are viewed inside
    PGL2(F_{p^m}); in characteristic 0 only ``p`` matters, for the <=5 cases).
    """

    __slots__ = ()

    def __new__(cls, char_K: int, p: int, m: int = 1):
        # The bounds keep trial division and every power p^t, t <= m, small.
        if p >= 2 ** 31:
            raise ContextError(f"residue characteristic {p} must be below 2^31")
        if not _is_prime(p):
            raise ContextError(f"residue characteristic {p} is not prime")
        if m < 1:
            raise ContextError(f"residue degree m={m} must be >= 1")
        if m > 64 or p ** m >= 2 ** 64:
            raise ContextError(f"residue field size p^m (p={p}, m={m}) must be below 2^64")
        if char_K not in (0, p):
            raise ContextError(f"char K must be 0 or p={p}, got {char_K}")
        return super().__new__(cls, char_K, p, m)

    @property
    def positive_char(self) -> bool:
        return self.char_K != 0


class GroupSymbol(NamedTuple):
    """A canonical Dickson symbol. Build via the constructor helpers below."""

    kind: str
    n: int = 0
    t: int = 0
    variant: str = ""

    def __str__(self) -> str:
        if self.kind == KIND_BOREL and self.n == 1:
            return f"E{self.t}"
        return _KINDS[self.kind][1].format(n=self.n, t=self.t, variant=self.variant)


TRIVIAL = GroupSymbol(KIND_TRIVIAL)
TETRAHEDRAL = GroupSymbol(KIND_TETRAHEDRAL)
OCTAHEDRAL = GroupSymbol(KIND_OCTAHEDRAL)
ICOSAHEDRAL = GroupSymbol(KIND_ICOSAHEDRAL)


def cyclic(n: int) -> GroupSymbol:
    if n < 1:
        raise SymbolError(f"cyclic order must be positive, got {n}")
    if n == 1:
        return TRIVIAL
    return GroupSymbol(KIND_CYCLIC, n=n)


def dihedral(n: int) -> GroupSymbol:
    if n < 2:
        raise SymbolError(f"dihedral parameter must be >= 2, got {n} (D1 is C2)")
    return GroupSymbol(KIND_DIHEDRAL, n=n)


def borel(t: int, n: int) -> GroupSymbol:
    if n < 1:
        raise SymbolError(f"Borel torus order must be positive, got B({t},{n})")
    if t < 0:
        raise SymbolError(f"Borel rank must be non-negative, got B({t},{n})")
    if t == 0:
        return cyclic(n)
    return GroupSymbol(KIND_BOREL, n=n, t=t)


def elementary(t: int) -> GroupSymbol:
    """E_t = B(t, 1), the elementary abelian p-group of rank t."""
    return borel(t, 1)


def proj_linear(variant: str, t: int) -> GroupSymbol:
    if variant not in ("PGL", "PSL"):
        raise SymbolError(f"projective linear variant must be PGL or PSL, got {variant!r}")
    if t < 1:
        raise SymbolError(f"projective linear field exponent must be >= 1, got {t}")
    return GroupSymbol(KIND_PROJ_LINEAR, t=t, variant=variant)


# Each kind: its parameters, in the order the input format writes them and its
# constructor takes them; its printed form; and its constructor.
_KINDS = {
    KIND_TRIVIAL: ((), "1", lambda: TRIVIAL),
    KIND_CYCLIC: (("n",), "C{n}", cyclic),
    KIND_DIHEDRAL: (("n",), "D{n}", dihedral),
    KIND_BOREL: (("t", "n"), "B({t},{n})", borel),
    KIND_PROJ_LINEAR: (("variant", "t"), "{variant}2(p^{t})", proj_linear),
    KIND_TETRAHEDRAL: ((), "A4", lambda: TETRAHEDRAL),
    KIND_OCTAHEDRAL: ((), "S4", lambda: OCTAHEDRAL),
    KIND_ICOSAHEDRAL: ((), "A5", lambda: ICOSAHEDRAL),
}

RawSymbol = Union[GroupSymbol, Mapping]


_JSON_KINDS = {
    int: "an integer", bool: "true or false", str: "a string", dict: "an object", list: "a list"
}


def json_scalar(value, kind: type, what: str):
    """``value`` if its type is ``kind`` (int, bool, str, dict or list), with nothing coerced: a
    boolean is not an integer, nor a float. Else TypeError, saying what ``what`` must be."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def canonicalize(raw: RawSymbol) -> GroupSymbol:
    """Return the canonical form of a symbol or of a mapping description.

    Mappings use the spelling of the input file format, e.g.
    ``{"kind": "borel", "t": 0, "n": 7}`` -> ``C7``. Idempotent.
    """
    if isinstance(raw, GroupSymbol):
        kind, n, t, variant = raw.kind, raw.n, raw.t, raw.variant
    elif isinstance(raw, Mapping):
        kind = raw.get("kind")
        try:
            n = json_scalar(raw.get("n", 0), int, "n")
            t = json_scalar(raw.get("t", 0), int, "t")
        except TypeError as exc:
            raise SymbolError(f"group parameters must be integers: {exc}") from exc
        variant = raw.get("variant", "")
    else:
        raise SymbolError(f"group description must be a symbol or a mapping, got {raw!r}")
    if not isinstance(kind, str) or kind not in _KINDS:  # a list or an object is unhashable
        raise SymbolError(f"unknown group kind {kind!r}")
    params, _, make = _KINDS[kind]
    given = {"n": n, "t": t, "variant": variant}
    return make(*map(given.get, params))


def symbol_to_dict(g: GroupSymbol) -> dict:
    """Inverse of canonicalize for the JSON input format."""
    return {"kind": g.kind, **{key: getattr(g, key) for key in _KINDS[g.kind][0]}}


def is_borel_form(g: GroupSymbol) -> bool:
    """True for B(t,n) in the wide sense: trivial, cyclic (t=0) and Borel symbols."""
    return g.kind in (KIND_TRIVIAL, KIND_CYCLIC, KIND_BOREL)


def borel_params(g: GroupSymbol) -> tuple[int, int]:
    """(t, n) of a Borel-form symbol; raises for anything else."""
    if g.kind == KIND_TRIVIAL:
        return (0, 1)
    if g.kind == KIND_CYCLIC:
        return (0, g.n)
    if g.kind == KIND_BOREL:
        return (g.t, g.n)
    raise SymbolError(f"{g} is not of Borel form")


def is_cyclic(g: GroupSymbol) -> bool:
    """Structural cyclicity: the Cyclic(n) symbols, n >= 2 (Trivial counted nowhere)."""
    return g.kind == KIND_CYCLIC


class PLInvariants(NamedTuple):
    n_minus: int
    n_plus: int


def pl_invariants(g: GroupSymbol, ctx: FieldContext) -> PLInvariants:
    """n- and n+ of a projective linear symbol: p^t -+ 1, halved for PSL (p odd)."""
    if g.kind != KIND_PROJ_LINEAR:
        raise SymbolError(f"pl_invariants needs a projective linear symbol, got {g}")
    if g.t > ctx.m:
        raise ContextError(f"{g}: field exponent t={g.t} exceeds residue degree m={ctx.m}")
    q = ctx.p ** g.t
    if g.variant == "PGL":
        return PLInvariants(q - 1, q + 1)
    if ctx.p == 2:
        raise ContextError("PSL2 coincides with PGL2 for p=2; use the PGL spelling")
    return PLInvariants((q - 1) // 2, (q + 1) // 2)


def order(g: GroupSymbol, ctx: FieldContext) -> int:
    """Group order. The symbol must be admissible in ctx (Trivial allowed)."""
    violations = validate_in_context(g, ctx)
    if violations:
        raise ContextError(f"{g} inadmissible in {ctx}: " + "; ".join(violations))
    if g.kind == KIND_TRIVIAL:
        return 1
    if g.kind == KIND_CYCLIC:
        return g.n
    if g.kind == KIND_DIHEDRAL:
        return 2 * g.n
    if g.kind == KIND_BOREL:
        return g.n * ctx.p ** g.t
    if g.kind == KIND_PROJ_LINEAR:
        q = ctx.p ** g.t
        full = q * (q - 1) * (q + 1)
        return full if g.variant == "PGL" else full // 2
    return _POLYHEDRAL[g.kind][0]


def validate_in_context(g: GroupSymbol, ctx: FieldContext) -> tuple[str, ...]:
    """Side conditions for each Dickson item; returns the violated ones (empty = ok).

    In characteristic p these are the catalog proposition's conditions; in
    characteristic 0 every Dickson type is admissible except the p-order
    families (Borel and projective linear symbols with t >= 1).
    """
    if g.kind not in _KINDS:  # only a hand-built symbol; canonicalize rejects the kind
        return (f"unknown group kind {g.kind!r}",)
    if g.kind == KIND_TRIVIAL:
        return ()
    bad: list[str] = []
    p, m = ctx.p, ctx.m
    if not ctx.positive_char:
        if g.kind in (KIND_BOREL, KIND_PROJ_LINEAR):
            bad.append(f"{g}: Borel/projective-linear symbols do not occur in char 0")
        return tuple(bad)
    if g.kind == KIND_CYCLIC:
        if math.gcd(g.n, p) != 1:
            bad.append(f"C{g.n}: order must be prime to p={p}")
    elif g.kind == KIND_DIHEDRAL:
        if p == 2:
            if g.n % 2 == 0:
                bad.append(f"D{g.n}: n must be odd for p=2")
        else:
            if (p ** m - 1) % g.n != 0 and (p ** m + 1) % g.n != 0:
                bad.append(f"D{g.n}: n must divide p^m-1 or p^m+1 (p^m={p ** m})")
    elif g.kind == KIND_BOREL:
        if g.t > m:
            bad.append(f"{g}: rank t={g.t} exceeds residue degree m={m}")
        elif g.n > 1:
            if (p ** g.t - 1) % g.n != 0:
                bad.append(f"{g}: n must divide p^t-1={p ** g.t - 1}")
            if (p ** m - 1) % g.n != 0:
                bad.append(f"{g}: n must divide p^m-1={p ** m - 1}")
    elif g.kind == KIND_PROJ_LINEAR:
        # t | m (not just t <= m): the field F_{p^t} must embed into F_{p^m},
        # and the Borel cusp B(t, n-) of the tree must itself be admissible.
        if g.t > m or m % g.t != 0:
            bad.append(f"{g}: field exponent t={g.t} must divide residue degree m={m}")
        if g.variant == "PSL" and p == 2:
            bad.append("PSL2 coincides with PGL2 for p=2; use the PGL spelling")
    elif g.kind in (KIND_TETRAHEDRAL, KIND_OCTAHEDRAL):
        if p in (2, 3):
            bad.append(f"{g}: requires p not in {{2,3}}")
    elif g.kind == KIND_ICOSAHEDRAL:
        if p in (2, 5):
            bad.append(f"{g}: requires p not in {{2,5}}")
        elif (p ** (2 * m) - 1) % 5 != 0:
            bad.append(f"{g}: requires 5 | p^2m - 1 (p^2m={p ** (2 * m)})")
    return tuple(bad)


def is_admissible(g: GroupSymbol, ctx: FieldContext) -> bool:
    return not validate_in_context(g, ctx)


def borel_extends(small: GroupSymbol, large: GroupSymbol) -> bool:
    """Whether small = B(t,n) sits inside large = B(t',n) with t | t'.

    Cyclic symbols count as t = 0 and extend into any Borel with the same
    torus order. False (never an error) for non-Borel-form input. Reflexive.
    """
    if not (is_borel_form(small) and is_borel_form(large)):
        return False
    t, n = borel_params(small)
    t2, n2 = borel_params(large)
    if n != n2:
        return False
    if t == 0:
        return True
    return t <= t2 and t2 % t == 0


def symbol_contains(large: GroupSymbol, small: GroupSymbol, ctx: FieldContext) -> bool:
    """Symbolic subgroup test for the containment patterns the engine needs.

    Deliberately partial: only relations justified by the classification are
    recognized (nested Borels, cyclic and dihedral subgroups, the polyhedral
    chain, torus/Borel subgroups of the projective linear groups). Unknown
    pairs return False.
    """
    if small.kind == KIND_TRIVIAL or large == small:
        return True
    if large.kind == KIND_TRIVIAL:
        return False
    if is_borel_form(small) and is_borel_form(large):
        if borel_extends(small, large):
            return True
        # C_k inside B(t,n) via the torus part.
        if small.kind == KIND_CYCLIC and large.kind in (KIND_CYCLIC, KIND_BOREL):
            return large.n % small.n == 0
        # E_s inside the unipotent part of B(t,n) (aligned embedding).
        ts, ns = borel_params(small)
        tl, _ = borel_params(large)
        return ns == 1 and large.kind == KIND_BOREL and ts <= tl
    if large.kind == KIND_DIHEDRAL:
        if small.kind == KIND_CYCLIC:
            return small.n == 2 or large.n % small.n == 0
        if small.kind == KIND_DIHEDRAL:
            return large.n % small.n == 0
        if small.kind == KIND_BOREL:
            # E_1 at p=2 is the parabolic involution of D_n.
            return (small.t, small.n) == (1, 1) and ctx.p == 2
        return False
    if large.kind in _POLYHEDRAL:
        _, cyc, dih = _POLYHEDRAL[large.kind]
        if small.kind == KIND_CYCLIC:
            return small.n in cyc
        if small.kind == KIND_DIHEDRAL:
            return small.n in dih
        if small.kind == KIND_TETRAHEDRAL:
            return large.kind in (KIND_OCTAHEDRAL, KIND_ICOSAHEDRAL)
        if small.kind == KIND_BOREL and large.kind == KIND_ICOSAHEDRAL:
            # B(1,2) is S3 = D3 at p = 3 only, where it sits in A5.
            return (small.t, small.n) == (1, 2) and ctx.p == 3
        return False
    if large.kind == KIND_PROJ_LINEAR:
        inv = pl_invariants(large, ctx)
        if small.kind == KIND_CYCLIC:
            return inv.n_plus % small.n == 0 or inv.n_minus % small.n == 0 or small.n == ctx.p
        if is_borel_form(small):
            ts, ns = borel_params(small)
            return ts <= large.t and large.t % max(ts, 1) == 0 and (ns == 1 or inv.n_minus % ns == 0)
        if small.kind == KIND_DIHEDRAL:
            return inv.n_plus % small.n == 0 or inv.n_minus % small.n == 0
        if small.kind == KIND_PROJ_LINEAR:
            return (
                small.t <= large.t
                and large.t % small.t == 0
                and (small.variant == large.variant or large.variant == "PGL")
            )
        return False
    return False


class DeriveError(ValueError):
    """Raised when an edge group cannot be derived from a supported pattern."""


def derive_edge_group(gu: GroupSymbol, gv: GroupSymbol, ctx: FieldContext) -> GroupSymbol:
    """Intersection of two vertex groups for the supported edge patterns.

    Supported: projective linear meets Borel (B(t,n) with t | s and n the
    PL invariant n-), two comparable Borel-form symbols with the same torus
    (the smaller one), and two cyclics (the gcd, possibly Trivial). Anything
    else raises DeriveError and must be given explicitly in the input.
    """
    if gu.kind == KIND_PROJ_LINEAR or gv.kind == KIND_PROJ_LINEAR:
        pl, other = (gu, gv) if gu.kind == KIND_PROJ_LINEAR else (gv, gu)
        if other.kind == KIND_BOREL:
            edge = borel(pl.t, pl_invariants(pl, ctx).n_minus)
            if borel_extends(edge, other):
                return edge
    if gu.kind in (KIND_CYCLIC, KIND_TRIVIAL) and gv.kind in (KIND_CYCLIC, KIND_TRIVIAL):
        return cyclic(math.gcd(max(gu.n, 1), max(gv.n, 1)))
    for small, large in ((gu, gv), (gv, gu)):
        if borel_extends(small, large):
            return borel(*borel_params(small))
    raise DeriveError(
        f"cannot derive edge group for ({gu}, {gv}); specify edge group in input"
    )


def format_symbol(g: GroupSymbol, ctx: FieldContext) -> str:
    """Pretty form in ``ctx``: the projective linear field size is concrete; ``str(g)``
    gives the form without a context."""
    return f"{g.variant}2({ctx.p ** g.t})" if g.kind == KIND_PROJ_LINEAR else str(g)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True

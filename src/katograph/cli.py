"""Batch front door: parse an input file, realize, analyze, report, emit DOT.

Exit codes: 0 = all checks agree, 1 = formula/structural failure,
2 = validation or parse error, or a failure to write the ``--out`` files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from .analysis import (
    QuotientSkeleton,
    SeparationPlan,
    StructuralReport,
    branch_points,
    census,
    contract,
    count_cusps_direct,
    cusp_count_char0,
    cusp_count_general,
    is_ordinary,
    separation_plan,
    structural_check,
)
from .catalog import Catalog, CatalogError, DEFAULT_CATALOG, _Kept, _shown, load_extension_file
from .fuzz import random_input
from .graphs import (
    GenusEdge,
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    KatoGraph,
    RealizeError,
    ValidationError,
    check_input,
    genus,
    realize,
)
from .groups import (
    FieldContext,
    SymbolError,
    TRIVIAL,
    canonicalize,
    format_symbol,
    json_scalar,
    symbol_to_dict,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2


class ParseError(ValueError):
    pass


# -- input files -----------------------------------------------------------------


def parse_spec(path) -> tuple[InputGraphOfGroups, Catalog]:
    """Parse an input file into a graph of groups plus its catalog.

    The optional ``catalog_extension`` key names an extension file resolved
    relative to the input file's directory.
    """
    path = Path(path)
    name = _shown(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{name}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
        raise ParseError(f"{name}: {exc}") from exc
    ext = data.get("catalog_extension") if isinstance(data, dict) else None
    if ext is not None and not isinstance(ext, str):
        raise ParseError(f"{name}: catalog_extension must be a file name, got {type(ext).__name__}")
    entries = ()
    if ext:
        try:
            entries = load_extension_file(path.parent / ext)
        # ValueError covers bad JSON, bad UTF-8, CatalogError and a NUL byte in the name.
        except (OSError, ValueError, RecursionError) as exc:
            raise ParseError(f"{name}: catalog_extension: {exc}") from exc
    try:
        catalog = Catalog(entries)
    except CatalogError as exc:  # only extension entries fail; named as parse_extension does
        raise ParseError(f"{name}: catalog_extension: {_shown(path.parent / ext)}: {exc}") from exc
    return parse_spec_dict(data, source=name), catalog


def parse_spec_dict(data, *, source: str = "<input>") -> InputGraphOfGroups:
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    try:
        f = data["field"]
        char_K, p = (json_scalar(f[k], int, k) for k in ("char_K", "p"))
        ctx = FieldContext(char_K, p, json_scalar(f.get("m", 1), int, "m"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{source}: field: {exc}") from exc
    vertices = _read_list(
        data, "vertices", source, lambda raw: InputVertex(raw["id"], canonicalize(raw["group"]))
    )
    edges = _read_list(data, "edges", source, _input_edge)
    genus_edges = _read_list(data, "genus_edges", source, _genus_edge)
    return InputGraphOfGroups(ctx, vertices, edges, genus_edges)


def _read_list(data: dict, key: str, source: str, build) -> tuple:
    """``build`` of each item of the list ``data[key]``, an error prefixed with its place."""
    items = data.get(key, [])
    if not isinstance(items, list):
        raise ParseError(f"{source}: {key} must be a list, got {type(items).__name__}")
    out = []
    for i, raw in enumerate(items):
        try:
            out.append(build(raw))
        except (KeyError, TypeError, SymbolError) as exc:
            raise ParseError(f"{source}: {key}[{i}]: {exc}") from exc
    return tuple(out)


def _input_edge(raw) -> InputEdge:
    _require_object(raw, "an edge")
    derive = json_scalar(raw.get("derive", False), bool, "derive")
    if not derive and "group" not in raw:
        raise TypeError("needs 'group' or 'derive': true")
    group = None if derive else canonicalize(raw["group"])
    hints = _require_object(raw.get("site_hints", {}), "site_hints")
    return InputEdge(
        raw["id"], (raw["from"], raw["to"]), group, derive, (hints.get("from"), hints.get("to"))
    )


def _genus_edge(raw) -> GenusEdge:
    group = canonicalize(raw["group"]) if "group" in raw else TRIVIAL
    return GenusEdge(raw["id"], (raw["from"], raw["to"]), group)


def _require_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be an object, got {type(value).__name__}")
    return value


# Printed forms depend only on their symbol, and a name on the context too, because
# PGL2(p^t) prints p^t as a number. So they are kept for the life of the process. A
# group block of ``echo_text`` is json.dumps's own text, indented to its place there.
_NAMES = _Kept(lambda ctx: _Kept(lambda g: format_symbol(g, ctx)))
_GROUP_BLOCKS = _Kept(
    lambda g: '      "group": '
    + json.dumps(symbol_to_dict(g), indent=2, sort_keys=True).replace("\n", "\n      ")
    + ",\n"
)


def input_echo(raw: InputGraphOfGroups) -> dict:
    """Canonical dict form of an input; parse_spec_dict of it is equivalent."""
    out = {
        "field": {"char_K": raw.ctx.char_K, "p": raw.ctx.p, "m": raw.ctx.m},
        "vertices": [
            {"id": v.id, "group": symbol_to_dict(v.group)} for v in raw.vertices
        ],
        "edges": [],
        "genus_edges": [
            {"id": g.id, "from": g.ends[0], "to": g.ends[1]}
            | ({} if g.group == TRIVIAL else {"group": symbol_to_dict(g.group)})
            for g in raw.genus_edges
        ],
    }
    for e in raw.edges:
        d = {"id": e.id, "from": e.ends[0], "to": e.ends[1]}
        if e.derive:
            d["derive"] = True
        else:
            d["group"] = symbol_to_dict(e.group)
        hints = {side: h for side, h in zip(("from", "to"), e.site_hints) if h is not None}
        if hints:
            d["site_hints"] = hints
        out["edges"].append(d)
    return out


def echo_text(raw: InputGraphOfGroups) -> str:
    """``json.dumps(input_echo(raw), indent=2, sort_keys=True)`` for every input
    whose ids and site hints are strings, as ``check_input`` requires. It is
    written from the echo's fixed shape, because ``json`` falls back to its
    pure-Python encoder when ``indent`` is set."""
    q, groups = encode_basestring_ascii, _GROUP_BLOCKS

    def listed(key: str, items: list[str]) -> str:
        return f'  "{key}": [\n' + ",\n".join(items) + "\n  ]" if items else f'  "{key}": []'

    edges = []
    for e in raw.edges:
        hints = ",\n".join(
            f'        "{side}": {q(h)}'
            for side, h in zip(("from", "to"), e.site_hints) if h is not None
        )
        edges.append(
            ('    {\n      "derive": true,\n' if e.derive else "    {\n")
            + f'      "from": {q(e.ends[0])},\n'
            + ("" if e.derive else groups[e.group])
            + f'      "id": {q(e.id)},\n'
            + (f'      "site_hints": {{\n{hints}\n      }},\n' if hints else "")
            + f'      "to": {q(e.ends[1])}\n    }}'
        )
    genus_edges = [
        f'    {{\n      "from": {q(g.ends[0])},\n'
        + ("" if g.group == TRIVIAL else groups[g.group])
        + f'      "id": {q(g.id)},\n      "to": {q(g.ends[1])}\n    }}'
        for g in raw.genus_edges
    ]
    vertices = [f'    {{\n{groups[v.group]}      "id": {q(v.id)}\n    }}' for v in raw.vertices]
    c = raw.ctx
    field = f'  "field": {{\n    "char_K": {c.char_K},\n    "m": {c.m},\n    "p": {c.p}\n  }}'
    parts = (listed("edges", edges), field, listed("genus_edges", genus_edges))
    return "{\n" + ",\n".join(parts + (listed("vertices", vertices),)) + "\n}"


# -- DOT ---------------------------------------------------------------------------


def emit_dot(obj: KatoGraph | QuotientSkeleton) -> str:
    """Deterministic DOT text: ellipse vertices, solid labeled edges, cusp arrows into point
    sinks, dashed genus loops, each in the order ``obj`` lists them. Ids escape ``"`` as
    ``\\"``, Graphviz's quote, and nothing else."""
    q = lambda name: name.replace('"', '\\"')
    names = _NAMES[obj.ctx]
    if isinstance(obj, KatoGraph):
        cusps, edges, loops = obj.cusps, obj.finite_edges, obj.genus_loops
    else:
        cusps, edges, loops = (), obj.edges, ()
    lines = ["digraph kato {", "  rankdir=LR;", '  node [fontname="Helvetica"];']
    for v in obj.vertices:
        lines.append(f'  "{q(v.id)}" [shape=ellipse, label="{names[v.stabilizer]}"];')
    for c in cusps:
        lines.append(f'  "{q(c.id)}@end" [shape=point, label=""];')
        lines.append(f'  "{q(c.base)}" -> "{q(c.id)}@end" [label="{names[c.stabilizer]}"];')
    for e in edges:
        lines.append(
            f'  "{q(e.ends[0])}" -> "{q(e.ends[1])}" [dir=none, label="{names[e.stabilizer]}"];'
        )
    for l in loops:
        lines.append(f'  "{q(l.ends[0])}" -> "{q(l.ends[1])}" [dir=none, style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- report ------------------------------------------------------------------------


class RunReport(NamedTuple):
    raw: InputGraphOfGroups
    graph: KatoGraph
    direct: int
    general: int
    char0: int | None
    ordinary: bool | None
    skeleton: QuotientSkeleton
    structure: StructuralReport
    plan: SeparationPlan
    warnings: tuple[str, ...]

    @property
    def formulas_agree(self) -> bool:
        if self.direct != self.general:
            return False
        if self.char0 is not None and self.direct != self.char0:
            return False
        return True

    @property
    def passed(self) -> bool:
        """The verdict: formulas agree, the structure is sound and nothing is non-ordinary."""
        return self.formulas_agree and self.structure.ok and self.ordinary is not False

    def render(self) -> str:
        g, sk, plan = self.graph, self.skeleton, self.plan
        names = _NAMES[g.ctx]
        vertex = lambda v: f"  {v.id}: {names[v.stabilizer]}"
        link = lambda e: f"  {e.id}: {e.ends[0]} -- {e.ends[1]}"
        edge = lambda e: f"{link(e)} [{names[e.stabilizer]}]"
        cusp = lambda c: f"  {c.id}: at {c.base} [{names[c.stabilizer]}]"
        distance_from = [f"  distance cluster {i} - cluster " for i in range(len(plan.clusters))]
        out = [
            "== input ==", echo_text(self.raw),
            "", "== realized kato graph ==",
            *_listing("vertices", g.vertices, vertex),
            *_listing("finite edges", g.finite_edges, edge),
            *_listing("cusps", g.cusps, cusp),
            *_listing("genus loops", g.genus_loops, link),
            f"genus (first Betti number): {genus(g)}",
            "", "== cusp counts ==",
            f"direct count:    {self.direct}",
            f"general formula: {self.general}",
            *([] if self.char0 is None else [f"char-0 formula:  {self.char0}"]),
            f"agreement: {'OK' if self.formulas_agree else 'MISMATCH'}",
            "", "== branch points ==",
            *([f"  {b.id}: group {names[b.stabilizer]}, anchor {b.base}"
               for b in branch_points(g)] or ["(none)"]),
            *([] if self.ordinary is None else
              ["", "== ordinarity ==", f"ordinary: {'yes' if self.ordinary else 'NO'}"]),
            "", "== contraction ==",
            *_listing("vertices", sk.vertices, vertex),
            *_listing("edges", sk.edges, edge),
            f"genus: {sk.genus}",
            "", "== structural check ==",
            *_check("(a) vertex valency bound", self.structure.incident_violations),
            *_check("(b) generation whitelist", self.structure.generation_violations),
            "", "== separation plan ==",
            *([f"  cluster {i} @ {cl.anchor}: {', '.join(cl.members)} (size {cl.size})"
               for i, cl in enumerate(plan.clusters)] or ["(no branch points)"]),
            *[f"{distance_from[i]}{j}: {d}" for i, j, d in plan.distances],
            "", "== warnings ==",
            *([f"- {w}" for w in self.warnings] or ["(none)"]),
            "",
        ]
        return "\n".join(out)


def _listing(title: str, items, line) -> list[str]:
    return [f"{title} ({len(items)}):", *map(line, items)]


def _check(title: str, violations: tuple[str, ...]) -> list[str]:
    return [f"{title}: {'VIOLATED' if violations else 'OK'}", *[f"    {m}" for m in violations]]


def build_report(raw: InputGraphOfGroups, catalog: Catalog) -> RunReport:
    checked = check_input(raw, catalog)
    graph = realize(checked)
    direct = count_cusps_direct(graph)
    general = cusp_count_general(checked)
    char0 = cusp_count_char0(census(graph)) if not raw.ctx.positive_char else None
    ordinary = is_ordinary(graph) if raw.ctx.positive_char else None
    skeleton = contract(graph)
    structure = structural_check(graph)
    plan = separation_plan(graph)
    warnings = tuple(graph.notes) + tuple(skeleton.warnings)
    return RunReport(
        raw, graph, direct, general, char0, ordinary,
        skeleton, structure, plan, warnings,
    )


def run(path, out_dir=None, strict=False) -> tuple[str, int]:
    """Execute the full pipeline on an input file; returns (report text, exit code)."""
    try:
        raw, catalog = parse_spec(path)
    except ParseError as exc:
        return (f"parse error: {exc}\n", EXIT_INVALID)
    try:
        report = build_report(raw, catalog)
    except ValidationError as exc:
        lines = "\n".join(f"- {v}" for v in exc.violations)
        return (f"validation failed:\n{lines}\n", EXIT_INVALID)
    except RealizeError as exc:
        return (f"realization rejected: {exc}\n", EXIT_INVALID)
    text = report.render()
    code = EXIT_OK if report.passed and not (strict and report.warnings) else EXIT_CHECK_FAILED
    if out_dir is not None:
        out = Path(out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.txt").write_text(text, encoding="utf-8")
            (out / "kato.dot").write_text(emit_dot(report.graph), encoding="utf-8")
            (out / "skeleton.dot").write_text(emit_dot(report.skeleton), encoding="utf-8")
        except OSError as exc:
            return (f"output error: {exc}\n", EXIT_INVALID)
    return (text, code)


def run_fuzz(count: int, seed: int) -> tuple[str, int]:
    """Check ``count`` inputs from ``seed``; a failure's input goes to stderr as JSON."""
    rng = random.Random(seed)
    failures = 0
    for i in range(count):
        raw = random_input(rng)
        try:
            report = build_report(raw, DEFAULT_CATALOG)
            why = None if report.passed else "formula, structure or ordinarity check failed"
        except (ValidationError, RealizeError) as exc:
            why = f"failed to realize: {exc}"
        if why is not None:
            failures += 1
            print(f"input {i}: {why}", file=sys.stderr)
            print(f"reproducer (seed {seed}, input {i}):\n{echo_text(raw)}", file=sys.stderr)
    text = f"fuzz: {count} inputs, {failures} failures (seed {seed})\n"
    return (text, EXIT_OK if failures == 0 else EXIT_CHECK_FAILED)


def _count(text: str) -> int:
    """An argparse type: a decimal integer that is zero or more."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a count of zero or more, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="katograph",
        description="Realize a graph of groups as a Kato graph and run every check.",
    )
    parser.add_argument("input", nargs="?", help="input file (JSON syntax)")
    parser.add_argument(
        "--out", metavar="DIR", help="write the report and the Kato graph and skeleton DOT to DIR"
    )
    parser.add_argument("--strict", action="store_true", help="treat warnings as errors")
    parser.add_argument("--seed", type=int, default=0, help="seed for --fuzz")
    parser.add_argument(
        "--fuzz", type=_count, metavar="K", help="run the random formula-agreement suite"
    )
    args = parser.parse_args(argv)
    if args.fuzz is not None:
        text, code = run_fuzz(args.fuzz, args.seed)
        sys.stdout.write(text)
        return code
    if args.input is None:
        parser.error("an input file is required unless --fuzz is given")
    text, code = run(args.input, out_dir=args.out, strict=args.strict)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

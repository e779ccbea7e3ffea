"""Batch front door: parse an input file, realize, analyze, report, emit DOT.

Exit codes: 0 = all checks agree, 1 = formula/structural failure,
2 = validation or parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from .analysis import (
    QuotientSkeleton,
    SeparationPlan,
    StructuralReport,
    branch_points,
    census,
    contract,
    count_cusps_direct,
    cusp_count_char0,
    is_ordinary,
    separation_plan,
    structural_check,
)
from .catalog import Catalog, CatalogError, DEFAULT_CATALOG, load_extension_file
from .fuzz import random_input
from .graphs import (
    CheckedInput,
    GenusEdge,
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    KatoGraph,
    RealizeError,
    ValidationError,
    check_input,
    cusp_count_general,
    genus,
    realize,
)
from .groups import (
    ContextError,
    FieldContext,
    SymbolError,
    TRIVIAL,
    canonicalize,
    format_symbol,
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
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    ext = data.get("catalog_extension") if isinstance(data, dict) else None
    catalog = Catalog()
    if ext:
        try:
            catalog = Catalog(load_extension_file(path.parent / ext))
        except (OSError, json.JSONDecodeError, CatalogError) as exc:
            raise ParseError(f"{path}: catalog_extension: {exc}") from exc
    return parse_spec_dict(data, source=str(path)), catalog


def parse_spec_dict(data, *, source: str = "<input>") -> InputGraphOfGroups:
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    try:
        f = data["field"]
        ctx = FieldContext(int(f["char_K"]), int(f["p"]), int(f.get("m", 1)))
    except (KeyError, TypeError, ValueError, ContextError) as exc:
        raise ParseError(f"{source}: field: {exc}") from exc
    vertices = []
    for i, raw in enumerate(_require_list(data, "vertices", source)):
        try:
            vertices.append(InputVertex(str(raw["id"]), canonicalize(raw["group"])))
        except (KeyError, TypeError, SymbolError) as exc:
            raise ParseError(f"{source}: vertices[{i}]: {exc}") from exc
    edges = []
    for i, raw in enumerate(_require_list(data, "edges", source)):
        try:
            _require_object(raw, "an edge")
            derive = bool(raw.get("derive", False))
            group = None
            if not derive:
                if "group" not in raw:
                    raise ParseError(f"{source}: edges[{i}]: needs 'group' or 'derive': true")
                group = canonicalize(raw["group"])
            hints_raw = _require_object(raw.get("site_hints", {}), "site_hints")
            hints = (hints_raw.get("from"), hints_raw.get("to"))
            edges.append(
                InputEdge(str(raw["id"]), (str(raw["from"]), str(raw["to"])), group, derive, hints)
            )
        except (KeyError, TypeError, SymbolError) as exc:
            raise ParseError(f"{source}: edges[{i}]: {exc}") from exc
    genus_edges = []
    for i, raw in enumerate(_require_list(data, "genus_edges", source)):
        try:
            group = canonicalize(raw["group"]) if "group" in raw else TRIVIAL
            genus_edges.append(
                GenusEdge(str(raw["id"]), (str(raw["from"]), str(raw["to"])), group)
            )
        except (KeyError, TypeError, SymbolError) as exc:
            raise ParseError(f"{source}: genus_edges[{i}]: {exc}") from exc
    return InputGraphOfGroups(ctx, tuple(vertices), tuple(edges), tuple(genus_edges))


def _require_list(data: dict, key: str, source: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{source}: {key} must be a list, got {type(value).__name__}")
    return value


def _require_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be an object, got {type(value).__name__}")
    return value


def input_echo(raw: InputGraphOfGroups) -> dict:
    """Canonical dict form of an input; parse_spec_dict of it is equivalent."""
    out = {
        "field": {"char_K": raw.ctx.char_K, "p": raw.ctx.p, "m": raw.ctx.m},
        "vertices": [
            {"id": v.id, "group": symbol_to_dict(v.group)} for v in raw.vertices
        ],
        "edges": [],
        "genus_edges": [
            {"id": g.id, "from": g.ends[0], "to": g.ends[1]} for g in raw.genus_edges
        ],
    }
    for e in raw.edges:
        d = {"id": e.id, "from": e.ends[0], "to": e.ends[1]}
        if e.derive:
            d["derive"] = True
        else:
            d["group"] = symbol_to_dict(e.group)
        hints = {}
        if e.site_hints[0] is not None:
            hints["from"] = e.site_hints[0]
        if e.site_hints[1] is not None:
            hints["to"] = e.site_hints[1]
        if hints:
            d["site_hints"] = hints
        out["edges"].append(d)
    return out


# -- DOT ---------------------------------------------------------------------------


def emit_dot(obj: KatoGraph | QuotientSkeleton, path=None) -> str:
    """Deterministic DOT text: ellipse vertices, solid labeled edges, cusp
    arrows into point-shaped sinks, dashed genus loops."""
    ctx = obj.ctx
    lines = ["digraph kato {", "  rankdir=LR;", '  node [fontname="Helvetica"];']
    for v in sorted(obj.vertices, key=lambda v: v.id):
        lines.append(f'  "{v.id}" [shape=ellipse, label="{format_symbol(v.stabilizer, ctx)}"];')
    if isinstance(obj, KatoGraph):
        for c in sorted(obj.cusps, key=lambda c: c.id):
            lines.append(f'  "{c.id}@end" [shape=point, label=""];')
            lines.append(
                f'  "{c.base}" -> "{c.id}@end" [label="{format_symbol(c.stabilizer, ctx)}"];'
            )
    edges = obj.finite_edges if isinstance(obj, KatoGraph) else obj.edges
    for e in sorted(edges, key=lambda e: e.id):
        lines.append(
            f'  "{e.ends[0]}" -> "{e.ends[1]}" '
            f'[dir=none, label="{format_symbol(e.stabilizer, ctx)}"];'
        )
    if isinstance(obj, KatoGraph):
        for l in sorted(obj.genus_loops, key=lambda l: l.id):
            lines.append(f'  "{l.ends[0]}" -> "{l.ends[1]}" [dir=none, style=dashed];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


# -- report ------------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    raw: InputGraphOfGroups
    checked: CheckedInput
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

    def render(self) -> str:
        ctx = self.graph.ctx
        fmt = lambda g: format_symbol(g, ctx)
        out: list[str] = ["== input =="]
        out.append(json.dumps(input_echo(self.raw), indent=2, sort_keys=True))
        g = self.graph
        out.append("")
        out.append("== realized kato graph ==")
        out.append(f"vertices ({len(g.vertices)}):")
        for v in g.vertices:
            out.append(f"  {v.id}: {fmt(v.stabilizer)}")
        out.append(f"finite edges ({len(g.finite_edges)}):")
        for e in g.finite_edges:
            out.append(f"  {e.id}: {e.ends[0]} -- {e.ends[1]} [{fmt(e.stabilizer)}]")
        out.append(f"cusps ({len(g.cusps)}):")
        for c in g.cusps:
            out.append(f"  {c.id}: at {c.base} [{fmt(c.stabilizer)}]")
        out.append(f"genus loops ({len(g.genus_loops)}):")
        for l in g.genus_loops:
            out.append(f"  {l.id}: {l.ends[0]} -- {l.ends[1]}")
        out.append(f"genus (first Betti number): {genus(g)}")
        out.append("")
        out.append("== cusp counts ==")
        out.append(f"direct count:    {self.direct}")
        out.append(f"general formula: {self.general}")
        if self.char0 is not None:
            out.append(f"char-0 formula:  {self.char0}")
        out.append(f"agreement: {'OK' if self.formulas_agree else 'MISMATCH'}")
        out.append("")
        out.append("== branch points ==")
        sig = branch_points(g)
        if not sig.points:
            out.append("(none)")
        for bp in sig.points:
            out.append(f"  {bp.id}: group {fmt(bp.decomposition_group)}, anchor {bp.anchor}")
        if self.ordinary is not None:
            out.append("")
            out.append("== ordinarity ==")
            out.append(f"ordinary: {'yes' if self.ordinary else 'NO'}")
        out.append("")
        out.append("== contraction ==")
        sk = self.skeleton
        out.append(f"vertices ({len(sk.vertices)}):")
        for v in sk.vertices:
            out.append(f"  {v.id}: {fmt(v.stabilizer)}")
        out.append(f"edges ({len(sk.edges)}):")
        for e in sk.edges:
            out.append(f"  {e.id}: {e.ends[0]} -- {e.ends[1]} [{fmt(e.stabilizer)}]")
        out.append(f"genus: {sk.genus}")
        out.append("")
        out.append("== structural check ==")
        out.append(
            "(a) vertex valency bound: "
            + ("OK" if not self.structure.incident_violations else "VIOLATED")
        )
        for msg in self.structure.incident_violations:
            out.append(f"    {msg}")
        out.append(
            "(b) generation whitelist: "
            + ("OK" if not self.structure.generation_violations else "VIOLATED")
        )
        for msg in self.structure.generation_violations:
            out.append(f"    {msg}")
        out.append("")
        out.append("== separation plan ==")
        for i, cl in enumerate(self.plan.clusters):
            out.append(
                f"  cluster {i} @ {cl.anchor}: {', '.join(cl.members)} (size {cl.size})"
            )
        if not self.plan.clusters:
            out.append("(no branch points)")
        for i, j, d in self.plan.distances:
            out.append(f"  distance cluster {i} - cluster {j}: {d}")
        out.append("")
        out.append("== warnings ==")
        if not self.warnings:
            out.append("(none)")
        for w in self.warnings:
            out.append(f"- {w}")
        out.append("")
        return "\n".join(out)


def build_report(raw: InputGraphOfGroups, catalog: Catalog) -> RunReport:
    checked = check_input(raw, catalog)
    graph = realize(checked)
    direct = count_cusps_direct(graph)
    general = cusp_count_general(checked)
    char0 = cusp_count_char0(census(graph)) if not raw.ctx.positive_char else None
    ordinary = (
        is_ordinary(branch_points(graph), raw.ctx) if raw.ctx.positive_char else None
    )
    skeleton = contract(graph)
    structure = structural_check(graph, catalog)
    plan = separation_plan(graph)
    warnings = tuple(graph.notes) + tuple(skeleton.warnings)
    return RunReport(
        raw, checked, graph, direct, general, char0, ordinary,
        skeleton, structure, plan, warnings,
    )


def run(path, out_dir=None, dot=False, do_contract=False, strict=False) -> tuple[str, int]:
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
        if str(exc).startswith("internal:"):
            return (f"formula failure: {exc}\n", EXIT_CHECK_FAILED)
        return (f"realization rejected: {exc}\n", EXIT_INVALID)
    text = report.render()
    code = EXIT_OK
    if not report.formulas_agree:
        code = EXIT_CHECK_FAILED
    if not report.structure.ok:
        code = EXIT_CHECK_FAILED
    if report.ordinary is False:
        code = EXIT_CHECK_FAILED
    if strict and report.warnings:
        code = EXIT_CHECK_FAILED
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text, encoding="utf-8")
        if dot:
            emit_dot(report.graph, out / "kato.dot")
            if do_contract:
                emit_dot(report.skeleton, out / "skeleton.dot")
    return (text, code)


def run_fuzz(count: int, seed: int) -> tuple[str, int]:
    rng = random.Random(seed)
    failures = 0
    for i in range(count):
        raw = random_input(rng)
        try:
            report = build_report(raw, DEFAULT_CATALOG)
        except (ValidationError, RealizeError) as exc:
            failures += 1
            print(f"input {i}: failed to realize: {exc}", file=sys.stderr)
            continue
        if not (report.formulas_agree and report.structure.ok):
            failures += 1
            print(f"input {i}: formula/structure mismatch", file=sys.stderr)
    text = f"fuzz: {count} inputs, {failures} failures (seed {seed})\n"
    return (text, EXIT_OK if failures == 0 else EXIT_CHECK_FAILED)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="katograph",
        description="Realize a graph of groups as a Kato graph and run every check.",
    )
    parser.add_argument("input", nargs="?", help="input file (JSON syntax)")
    parser.add_argument("--out", metavar="DIR", help="write report and diagrams to DIR")
    parser.add_argument("--dot", action="store_true", help="emit DOT diagrams (with --out)")
    parser.add_argument(
        "--contract", action="store_true", help="also emit the contracted skeleton diagram"
    )
    parser.add_argument("--strict", action="store_true", help="treat warnings as errors")
    parser.add_argument("--seed", type=int, default=0, help="seed for --fuzz")
    parser.add_argument(
        "--fuzz", type=int, metavar="K", help="run the random formula-agreement suite"
    )
    args = parser.parse_args(argv)
    if args.fuzz is not None:
        text, code = run_fuzz(args.fuzz, args.seed)
        sys.stdout.write(text)
        return code
    if args.input is None:
        parser.error("an input file is required unless --fuzz is given")
    text, code = run(
        args.input,
        out_dir=args.out,
        dot=args.dot,
        do_contract=args.contract,
        strict=args.strict,
    )
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

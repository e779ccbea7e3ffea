"""Every public record keeps its value semantics: the repr format, immutable
fields, and equality and hashing by value. Records are named tuples, so that
importing the package loads neither ``dataclasses`` nor, through it, ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from katograph.analysis import (
    Cluster,
    FormulaCensus,
    QuotientSkeleton,
    SeparationPlan,
    StructuralReport,
)
from katograph.catalog import (
    DEFAULT_CATALOG,
    AttachmentTrace,
    CuspSite,
    ElementaryTree,
    EmbedMaps,
    PrintedEntry,
    TreeEdge,
    TreeVertex,
)
from katograph.cli import build_report
from katograph.graphs import (
    CheckedInput,
    GenusEdge,
    GraphCusp,
    GraphEdge,
    GraphLoop,
    GraphVertex,
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    KatoGraph,
)
from katograph.groups import FieldContext, PLInvariants, TRIVIAL, cyclic

ROOT = Path(__file__).parent.parent
CTX = FieldContext(0, 7, 1)
C2 = cyclic(2)
R_CTX = repr(CTX)
R_C2 = repr(C2)
R_ONE = repr(TRIVIAL)


def tiny_input():
    return InputGraphOfGroups(CTX, (InputVertex("a", C2),))


def tiny_report():
    return build_report(tiny_input(), DEFAULT_CATALOG)


def tree():
    return ElementaryTree(C2, (TreeVertex("v0", C2),), (), (CuspSite("c0", "v0", C2),))


R_TREE = (
    f"ElementaryTree(group={R_C2}, vertices=(TreeVertex(id='v0', stabilizer={R_C2}),), "
    "internal_edges=(), cusps=(CuspSite(id='c0', base_vertex='v0', "
    f"stabilizer={R_C2}, marked_point=None, fold_on_attach=False),), printed=False)"
)


def maps():
    return EmbedMaps((("v0", "v0"),), (("c1", "c1"),), (("c0", ("mark", "c0")),))


R_MAPS = (
    "EmbedMaps(vertex_map=(('v0', 'v0'),), cusp_map=(('c1', 'c1'),), "
    "mark_map=(('c0', ('mark', 'c0')),))"
)


def report_repr(r):
    return (
        f"RunReport(raw={r.raw!r}, graph={r.graph!r}, direct=2, general=2, char0=2, "
        f"ordinary=None, skeleton={r.skeleton!r}, structure={r.structure!r}, "
        f"plan={r.plan!r}, warnings=())"
    )


# (a factory giving a fresh record, a field, the record's repr)
RECORDS = [
    (lambda: InputVertex("a", C2), "id", f"InputVertex(id='a', group={R_C2})"),
    (
        lambda: InputEdge("e", ("a", "b"), C2),
        "group",
        f"InputEdge(id='e', ends=('a', 'b'), group={R_C2}, derive=False, "
        "site_hints=(None, None))",
    ),
    (
        lambda: GenusEdge("g", ("a", "a")),
        "ends",
        f"GenusEdge(id='g', ends=('a', 'a'), group={R_ONE})",
    ),
    (
        tiny_input,
        "vertices",
        f"InputGraphOfGroups(ctx={R_CTX}, vertices=(InputVertex(id='a', group={R_C2}),), "
        "edges=(), genus_edges=())",
    ),
    (
        lambda: CheckedInput(CTX, (InputVertex("a", C2),), (), (), ()),
        "catalog",
        f"CheckedInput(ctx={R_CTX}, vertices=(InputVertex(id='a', group={R_C2}),), edges=(), "
        f"genus_edges=(), traces=(), catalog={DEFAULT_CATALOG!r})",
    ),
    (lambda: GraphVertex("a:v0", C2), "stabilizer", f"GraphVertex(id='a:v0', stabilizer={R_C2})"),
    (
        lambda: GraphEdge("e", ("x", "y"), C2),
        "ends",
        f"GraphEdge(id='e', ends=('x', 'y'), stabilizer={R_C2})",
    ),
    (
        lambda: GraphCusp("a:c0", "a:v0", C2),
        "base",
        f"GraphCusp(id='a:c0', base='a:v0', stabilizer={R_C2})",
    ),
    (lambda: GraphLoop("g", ("x", "x")), "id", "GraphLoop(id='g', ends=('x', 'x'))"),
    (
        lambda: KatoGraph(CTX, (GraphVertex("v", C2),), (), (GraphCusp("c", "v", C2),), (), ("n",)),
        "notes",
        f"KatoGraph(ctx={R_CTX}, vertices=(GraphVertex(id='v', stabilizer={R_C2}),), "
        f"finite_edges=(), cusps=(GraphCusp(id='c', base='v', stabilizer={R_C2}),), "
        f"genus_loops=(), notes=('n',), catalog={DEFAULT_CATALOG!r})",
    ),
    (lambda: TreeVertex("v0", C2), "id", f"TreeVertex(id='v0', stabilizer={R_C2})"),
    (
        lambda: TreeEdge("e0", ("v0", "v1"), C2),
        "stabilizer",
        f"TreeEdge(id='e0', ends=('v0', 'v1'), stabilizer={R_C2})",
    ),
    (
        lambda: CuspSite("c0", "v0", C2, C2, True),
        "fold_on_attach",
        f"CuspSite(id='c0', base_vertex='v0', stabilizer={R_C2}, marked_point={R_C2}, "
        "fold_on_attach=True)",
    ),
    (tree, "printed", R_TREE),
    (maps, "cusp_map", R_MAPS),
    (
        lambda: AttachmentTrace("c0", "iso", embed=maps()),
        "site",
        f"AttachmentTrace(site='c0', kind='iso', fold_at_mark=False, partner_site=None, "
        f"embed={R_MAPS})",
    ),
    (lambda: PrintedEntry(5, tree()), "p", f"PrintedEntry(p=5, tree={R_TREE}, traces=())"),
    (lambda: FormulaCensus(1, 2, 3, 4), "c", "FormulaCensus(C=1, c=2, D=3, d=4)"),
    (
        lambda: QuotientSkeleton(CTX, (GraphVertex("v", C2),), (), 0),
        "genus",
        f"QuotientSkeleton(ctx={R_CTX}, vertices=(GraphVertex(id='v', stabilizer={R_C2}),), "
        "edges=(), genus=0, warnings=())",
    ),
    (
        lambda: StructuralReport((), ("x",)),
        "incident_violations",
        "StructuralReport(incident_violations=(), generation_violations=('x',))",
    ),
    (lambda: Cluster("v", ("c0", "c1")), "members", "Cluster(anchor='v', members=('c0', 'c1'))"),
    (
        lambda: SeparationPlan((Cluster("v", ("c0",)),), ((0, 1, 2),)),
        "distances",
        "SeparationPlan(clusters=(Cluster(anchor='v', members=('c0',)),), distances=((0, 1, 2),))",
    ),
    (tiny_report, "direct", report_repr(tiny_report())),
    (lambda: PLInvariants(2, 4), "n_plus", "PLInvariants(n_minus=2, n_plus=4)"),
]


@pytest.mark.parametrize(
    "make, field, text", RECORDS, ids=[text.split("(", 1)[0] for _, _, text in RECORDS]
)
def test_record_semantics(make, field, text):
    record = make()
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    twin = make()
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)


@pytest.mark.parametrize("module", ["katograph", "katograph.cli"])
def test_import_loads_no_dataclasses(module):
    # A fresh interpreter, as ``katograph FILE`` starts one per input.
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"

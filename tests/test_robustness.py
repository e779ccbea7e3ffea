"""Every input ends with exit 0, 1 or 2 and no traceback, and no id adds a line.

Each example of the first test takes one fixture input (or the extension
catalog it names), puts an arbitrary JSON value at one key path, and runs the
CLI on it. The second builds library inputs whose ids, ends and site hints hold
escapes, control characters, line breaks and lone surrogates. The third scans
every node of the fixture inputs and of two extension documents for the
wording of each shape error.
"""

import copy
import functools
import json
import operator
import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from katograph.catalog import DEFAULT_CATALOG, Catalog, CatalogError, parse_extension
from katograph.cli import ParseError, build_report, emit_dot, parse_spec_dict, run
from katograph.graphs import GenusEdge, InputEdge, InputGraphOfGroups, InputVertex, validate_input
from katograph.groups import TETRAHEDRAL, TRIVIAL, FieldContext, cyclic, dihedral
from inputs import a5_entry, document
from test_echo import TEXT

FIXTURES = Path(__file__).parent.parent / "fixtures"
EXTENSION = "extension_d15_k5.json"
INPUTS = [
    "borel_p2_t2_s4.json",
    "corrupted_e_edge.json",
    "d15_chain_k5.json",
    "schottky_genus2.json",
    "triangle_k5.json",
]
# Keys the formats read but the fixtures may leave out: a path may add one.
OPTIONAL_KEYS = (
    "m", "n", "t", "variant", "derive", "site_hints", "genus_edges", "catalog_extension",
    "internal_edges", "marked_point", "fold_on_attach", "embed_traces", "mark_map",
)
EXIT_2_PREFIXES = ("parse error:", "validation failed:", "realization rejected:")

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-1, 0, 1, 2, 5, 2**31, 2**64, 10**400, -(10**400)])
    | st.floats()  # nan and both infinities included
    | st.text(max_size=8)
    | st.sampled_from(["cyclic", "dihedral", "borel", "proj_linear", "icosahedral",
                       "trivial", "PGL", "PSL", "fold", "iso", "mark", "vertex",
                       "a", "b", "v0", "c0", EXTENSION])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(OPTIONAL_KEYS + ("id", "kind", "group")) | st.text(max_size=4),
                      inner, max_size=4),
    max_leaves=12,
)


def _load(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key in OPTIONAL_KEYS:
            if key not in doc:
                yield prefix + (key,)
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _put(doc, path, value):
    if not path:
        return value
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


TARGETS = [(name, list(_paths(_load(name)))) for name in INPUTS + [EXTENSION]]


@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=3000,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_run_ends_with_an_exit_code(tmp_path_factory, data):
    target, paths = data.draw(st.sampled_from(TARGETS))
    path = data.draw(st.sampled_from(paths))
    mutated = _put(_load(target), path, data.draw(VALUES))
    workdir = tmp_path_factory.mktemp("robust")
    if target == EXTENSION:
        files = {"input.json": _load("d15_chain_k5.json"), EXTENSION: mutated}
    else:
        files = {"input.json": mutated, EXTENSION: _load(EXTENSION)}
    for name, doc in files.items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    text, code = run(workdir / "input.json")
    assert code in (0, 1, 2)
    if code == 2:
        assert text.startswith(EXIT_2_PREFIXES), text


# Half the names are plain and vertex ids distinct, so that some inputs realize.
NAME = st.sampled_from(["a", "b", "c"]) | TEXT
GROUP = st.sampled_from([TRIVIAL, cyclic(3), dihedral(3), dihedral(6), TETRAHEDRAL])
VERTEX = st.builds(InputVertex, NAME, GROUP)
ENDS = st.tuples(NAME, NAME)
HINTS = st.tuples(st.none() | TEXT, st.none() | TEXT)
EDGE = st.builds(InputEdge, NAME, ENDS, st.just(TRIVIAL), st.just(False), HINTS) | st.builds(
    InputEdge, NAME, ENDS, st.none(), st.just(True), HINTS
)
LIBRARY_INPUT = st.builds(
    InputGraphOfGroups,
    st.just(FieldContext(0, 7)),
    st.lists(VERTEX, max_size=4, unique_by=lambda v: v.id).map(tuple),
    st.lists(EDGE, max_size=3).map(tuple),
    st.lists(st.builds(GenusEdge, NAME, ENDS, GROUP), max_size=2).map(tuple),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(LIBRARY_INPUT)
def test_no_id_adds_a_line_to_the_output(raw):
    violations = validate_input(raw)
    assert all(v.isprintable() for v in violations), violations
    if violations:
        return
    report = build_report(raw, DEFAULT_CATALOG)
    g = report.graph
    for x in g.vertices + g.finite_edges + g.cusps + g.genus_loops:
        assert x.id.isprintable(), x
    for text in (report.render(), emit_dot(g), emit_dot(report.skeleton)):
        text.encode("utf-8")


# -- the shape scan --------------------------------------------------------------------

_A5_FOLD = document(
    a5_entry(
        embed_traces=[
            {
                "edge_group": {"kind": "dihedral", "n": 5},
                "kind": "fold",
                "vertex_map": {"v0": "v1"},
                "cusp_map": {"c1": "c1", "c2": "c2"},
                "mark_map": {"c0": ["vertex", "v0"]},
            }
        ]
    )
)
_REPLACEMENTS = (5, "x", None, [], {})
# What Python says of a value of the wrong kind, or of a missing key (its bare quoted name).
_PYTHON_WORDS = re.compile(
    r"object is not|has no attribute|indices must be|not iterable|unpack|(^|: )'[^']*'$"
)


def _nodes(doc, prefix=()):
    """The key path of each node below the root of ``doc``."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield prefix + (key,)
            yield from _nodes(value, prefix + (key,))


def _variants(doc):
    """``doc`` with each node replaced by each of ``_REPLACEMENTS``, and with each key deleted."""
    for path in list(_nodes(doc)):
        for value in _REPLACEMENTS:
            yield _put(copy.deepcopy(doc), path, value)
        if isinstance(path[-1], str):
            variant = copy.deepcopy(doc)
            del functools.reduce(operator.getitem, path[:-1], variant)[path[-1]]
            yield variant


def _outcome(parse, doc, error: type[Exception]):
    """The message of the ``error`` that ``parse(doc)`` raises, or None if it parses."""
    try:
        parse(doc)
    except error as exc:
        return str(exc)
    return None


def _load_extension(doc):
    Catalog(parse_extension(doc))


_SCANNED = [(_load(name), parse_spec_dict, ParseError) for name in INPUTS] + [
    (doc, _load_extension, CatalogError) for doc in (_load(EXTENSION), _A5_FOLD)
]


def test_every_shape_error_of_a_record_is_worded_by_the_reader():
    # Each node of every fixture input and of two extension documents is replaced by a
    # number, a string, null, a list or an object, or its key is deleted. Each variant
    # parses or raises one error of its parser, whose reason is not in Python's words.
    assert all(_outcome(parse, doc, error) is None for doc, parse, error in _SCANNED)
    messages = [
        message
        for doc, parse, error in _SCANNED
        for message in (_outcome(parse, variant, error) for variant in _variants(doc))
        if message is not None
    ]
    assert len(messages) > 1000
    assert [m for m in messages if "\n" in m] == []
    assert sorted({m for m in messages if _PYTHON_WORDS.search(m)}) == []

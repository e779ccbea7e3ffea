"""Every input ends with exit 0, 1 or 2 and no traceback.

Each example takes one fixture input (or the extension catalog it names),
puts an arbitrary JSON value at one key path, and runs the CLI on it.
"""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from katograph.cli import run

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

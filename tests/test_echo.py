"""The report's input echo: ``echo_text`` writes exactly the bytes of
``json.dumps(input_echo(raw), indent=2, sort_keys=True)``.

``RunReport.render`` uses ``echo_text`` because ``json.dumps`` with ``indent``
runs the pure-Python encoder. These tests hold the two texts equal on the
acceptance corpus, the fixtures, hand-picked shapes and random inputs whose
strings need escaping.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from inputs import golden_corpus

from katograph.cli import ParseError, echo_text, input_echo, parse_spec
from katograph.graphs import GenusEdge, InputEdge, InputGraphOfGroups, InputVertex
from katograph.groups import (
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    TRIVIAL,
    FieldContext,
    borel,
    cyclic,
    dihedral,
    elementary,
    proj_linear,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"

GROUPS = (
    TRIVIAL, cyclic(2), cyclic(10**30), dihedral(5), borel(2, 3), elementary(3),
    proj_linear("PGL", 2), proj_linear("PSL", 1), TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL,
)
CONTEXTS = (
    FieldContext(0, 5), FieldContext(2, 2, 3), FieldContext(3, 3, 2), FieldContext(0, 2**31 - 1)
)


def assert_json_text(raw: InputGraphOfGroups):
    assert echo_text(raw) == json.dumps(input_echo(raw), indent=2, sort_keys=True)


def test_echo_matches_json_on_the_acceptance_corpus():
    for raw in golden_corpus():
        assert_json_text(raw)


def test_echo_matches_json_on_every_fixture():
    parsed = 0
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            raw, _catalog = parse_spec(path)
        except ParseError:  # malformed.json, and the extension catalog
            continue
        assert_json_text(raw)
        parsed += 1
    assert parsed == 5


def _edge(eid, group=None, derive=False, hints=(None, None)):
    return InputEdge(eid, ("a", "b"), group, derive, hints)


SHAPES = {
    "empty": InputGraphOfGroups(FieldContext(0, 7), ()),
    "vertices-only": InputGraphOfGroups(
        FieldContext(0, 5), tuple(InputVertex(f"v{i}", g) for i, g in enumerate(GROUPS))
    ),
    "derive-and-hints": InputGraphOfGroups(
        FieldContext(3, 3, 2),
        (InputVertex("a", proj_linear("PSL", 2)), InputVertex("b", borel(1, 4))),
        (
            _edge("d", derive=True),
            _edge("f", derive=True, hints=("c0", None)),
            _edge("t", cyclic(4), hints=(None, "c1")),
            _edge("u", borel(1, 2), hints=("c0", "c1")),
        ),
    ),
    "genus-groups": InputGraphOfGroups(
        FieldContext(0, 7),
        (InputVertex("a", cyclic(3)),),
        (),
        (GenusEdge("g0", ("a", "a")), GenusEdge("g1", ("a", "a"), cyclic(2)),
         GenusEdge("g2", ("a", "a"), proj_linear("PGL", 3))),
    ),
    "every-edge-group": InputGraphOfGroups(
        FieldContext(2, 2, 3), (), tuple(_edge(f"e{i}", g) for i, g in enumerate(GROUPS))
    ),
}


@pytest.mark.parametrize("raw", SHAPES.values(), ids=SHAPES.keys())
def test_echo_matches_json_on_each_shape(raw):
    assert_json_text(raw)


# Strings with JSON escapes, control characters, non-ASCII, astral characters,
# lone surrogates and the realized-id separator, besides any code point.
TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\b\n:é€😀𐏿'),
    max_size=6,
)
GROUP = st.sampled_from(GROUPS) | st.builds(borel, st.integers(0, 9), st.integers(1, 99))
HINTS = st.tuples(st.none() | TEXT, st.none() | TEXT)
ENDS = st.tuples(TEXT, TEXT)
EDGE = st.builds(InputEdge, TEXT, ENDS, GROUP, st.just(False), HINTS) | st.builds(
    InputEdge, TEXT, ENDS, st.none(), st.just(True), HINTS
)
INPUT = st.builds(
    InputGraphOfGroups,
    st.sampled_from(CONTEXTS),
    st.lists(st.builds(InputVertex, TEXT, GROUP), max_size=4).map(tuple),
    st.lists(EDGE, max_size=4).map(tuple),
    st.lists(st.builds(GenusEdge, TEXT, ENDS, GROUP), max_size=3).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(INPUT)
def test_echo_matches_json_on_random_strings(raw):
    assert_json_text(raw)

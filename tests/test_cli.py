import json
import os
import random
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

from katograph.analysis import SeparationPlan, StructuralReport, contract, cusp_count_general
from katograph.catalog import Catalog
from katograph.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    ParseError,
    build_report,
    emit_dot,
    input_echo,
    main,
    parse_spec,
    parse_spec_dict,
    run,
    run_fuzz,
)
from katograph.fuzz import random_input
from katograph.graphs import (
    GenusEdge,
    InputGraphOfGroups,
    InputVertex,
    check_input,
    realize,
    validate_input,
)
from katograph.groups import FieldContext, cyclic, dihedral

FIXTURES = Path(__file__).parent.parent / "fixtures"


def fixture(name: str) -> Path:
    return FIXTURES / name


# -- parsing ---------------------------------------------------------------------


def test_parse_triangle_fixture():
    raw, _cat = parse_spec(fixture("triangle_k5.json"))
    assert [str(v.group) for v in raw.vertices] == ["A5", "D10"]
    assert raw.edges[0].group == dihedral(5)


def test_parse_derive_edge():
    raw, _cat = parse_spec(fixture("borel_p2_t2_s4.json"))
    assert raw.edges[0].derive and raw.edges[0].group is None


def test_parse_genus_edges():
    raw, _cat = parse_spec(fixture("schottky_genus2.json"))
    assert len(raw.genus_edges) == 2


def test_parse_malformed_reports_position():
    with pytest.raises(ParseError, match=r"line \d+"):
        parse_spec(fixture("malformed.json"))


def test_parse_unknown_kind():
    with pytest.raises(ParseError, match="kind"):
        parse_spec_dict(
            {
                "field": {"char_K": 0, "p": 7},
                "vertices": [{"id": "a", "group": {"kind": "sporadic"}}],
            }
        )


def test_parse_genus_edge_group_key(tmp_path):
    # A "group" key on a genus edge parses; validation rejects non-trivial ones.
    doc = {
        "field": {"char_K": 0, "p": 7, "m": 1},
        "vertices": [{"id": "a", "group": {"kind": "cyclic", "n": 3}}],
        "genus_edges": [
            {"id": "g0", "from": "a", "to": "a", "group": {"kind": "cyclic", "n": 2}}
        ],
    }
    path = tmp_path / "bad_genus.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    text, code = run(path)
    assert code == EXIT_INVALID
    assert "trivial stabilizer" in text
    doc["genus_edges"][0]["group"] = {"kind": "trivial"}
    path.write_text(json.dumps(doc), encoding="utf-8")
    _text, code = run(path)
    assert code == EXIT_OK


def test_parse_extension_reference():
    raw, cat = parse_spec(fixture("d15_chain_k5.json"))
    checked = check_input(raw, cat)
    g = realize(checked)
    assert len(g.cusps) == 4


# -- round trip -------------------------------------------------------------------


def test_input_echo_round_trip():
    raw, _ = parse_spec(fixture("borel_p2_t2_s4.json"))
    echoed = parse_spec_dict(input_echo(raw))
    assert echoed == raw
    raw2, _ = parse_spec(fixture("triangle_k5.json"))
    assert parse_spec_dict(input_echo(raw2)) == raw2
    # A genus edge keeps a non-trivial group, so the echo is rejected like the input.
    loop = GenusEdge("g", ("a", "a"), cyclic(2))
    raw3 = InputGraphOfGroups(FieldContext(0, 7), (InputVertex("a", cyclic(3)),), (), (loop,))
    echo = input_echo(raw3)
    assert echo["genus_edges"] == [
        {"id": "g", "from": "a", "to": "a", "group": {"kind": "cyclic", "n": 2}}
    ]
    assert parse_spec_dict(echo) == raw3
    assert "genus edge g: genus edges must have trivial stabilizer" in validate_input(raw3)


# -- run and exit codes --------------------------------------------------------------


def test_run_triangle_ok():
    text, code = run(fixture("triangle_k5.json"))
    assert code == EXIT_OK
    assert "direct count:    3" in text
    assert "general formula: 3" in text
    assert "char-0 formula:  3" in text
    assert "agreement: OK" in text


def test_run_borel_ok():
    text, code = run(fixture("borel_p2_t2_s4.json"))
    assert code == EXIT_OK
    assert "direct count:    2" in text
    assert "ordinary: yes" in text
    assert "B(4,3)" in text and "C5" in text


def test_run_corrupted_fixture_fails_structurally():
    text, code = run(fixture("corrupted_e_edge.json"))
    assert code == EXIT_CHECK_FAILED
    assert "VIOLATED" in text


def test_run_malformed_fixture():
    text, code = run(fixture("malformed.json"))
    assert code == EXIT_INVALID
    assert "parse error" in text


_FIELD = {"char_K": 0, "p": 7}
_VERTICES = [{"id": "a", "group": {"kind": "cyclic", "n": 2}}, {"id": "b", "group": {"kind": "trivial"}}]


@pytest.mark.parametrize(
    "data",
    [
        [_FIELD, _VERTICES],
        {"field": _FIELD, "vertices": [{"id": "a", "group": {"kind": "cyclic", "n": "x"}}]},
        {"field": _FIELD, "vertices": _VERTICES, "edges": [["e", "a", "b"]]},
        {
            "field": _FIELD,
            "vertices": _VERTICES,
            "edges": [
                {"id": "e", "from": "a", "to": "b", "group": {"kind": "trivial"}, "site_hints": ["c0"]}
            ],
        },
        {"field": _FIELD, "vertices": 5},
        {"field": _FIELD, "vertices": _VERTICES, "edges": None},
        {"field": _FIELD, "vertices": _VERTICES, "genus_edges": 5},
        # Python's json reads these spellings as floats that int() cannot convert.
        b'{"field": {"char_K": 0, "p": 1e400}, "vertices": []}',
        b'{"field": {"char_K": Infinity, "p": 7}, "vertices": []}',
        b'{"field": {"char_K": 0, "p": 7, "m": -Infinity}, "vertices": []}',
        b'{"field": {"char_K": 0, "p": 7}, "vertices": [{"id": "a", "group": {"kind": "cyclic", "n": 1e400}}]}',
        b'{"field": {"char_K": 3, "p": 3}, "vertices": [{"id": "a", "group": {"kind": "borel", "t": Infinity, "n": 2}}]}',
        b'{"field": {"char_K": 0, "p": ' + b"9" * 5000 + b'}, "vertices": []}',
        b"[" * 100000 + b"]" * 100000,
        b"\xff\xfe{}",
        # Numbers and flags are checked, not coerced: 2.7 is not C2, "false" is not false.
        {"field": _FIELD, "vertices": [{"id": "a", "group": {"kind": "cyclic", "n": 2.7}}]},
        {"field": {"char_K": 0, "p": 7.9}, "vertices": []},
        {"field": _FIELD, "vertices": [{"id": "a", "group": {"kind": "cyclic", "n": True}}]},
        {
            "field": _FIELD,
            "vertices": _VERTICES,
            "edges": [
                {"id": "e", "from": "a", "to": "b", "group": {"kind": "trivial"}, "derive": "false"}
            ],
        },
        {"field": {"char_K": 0, "p": "7"}, "vertices": []},
    ],
    ids=[
        "top-level-list", "non-integer-n", "edge-as-list", "site-hints-as-list",
        "vertices-not-a-list", "edges-null", "genus-edges-not-a-list",
        "p-1e400", "char-K-infinity", "m-minus-infinity", "n-1e400", "t-infinity",
        "integer-too-long", "nesting-too-deep", "not-utf-8",
        "n-float", "p-float", "n-bool", "derive-string", "p-numeric-string",
    ],
)
def test_run_malformed_shapes_are_parse_errors(data, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    text, code = run(path)
    assert code == EXIT_INVALID
    assert text.startswith("parse error: ") and text.count("\n") == 1


@pytest.mark.parametrize(
    "key, item, message",
    [
        ("edges", {"id": "e", "from": "a", "to": "b"}, "edges[0]: needs 'group' or 'derive': true"),
        ("genus_edges", {"id": "g", "from": "a"}, "genus_edges[0]: 'to'"),
        (
            "genus_edges",
            {"id": "g", "from": "a", "to": "a", "group": {"kind": "sporadic"}},
            "genus_edges[0]: unknown group kind 'sporadic'",
        ),
    ],
    ids=["edge-without-group", "genus-edge-without-end", "genus-edge-unknown-kind"],
)
def test_parse_pins_each_edge_item_error(key, item, message):
    with pytest.raises(ParseError) as info:
        parse_spec_dict({"field": _FIELD, "vertices": _VERTICES, key: [item]})
    assert str(info.value) == f"<input>: {message}"


@pytest.mark.parametrize(
    "kind", [["cyclic"], {"kind": "cyclic"}, 3, None], ids=["list", "object", "number", "null"]
)
def test_parse_a_kind_that_is_not_a_string_is_one_parse_error(kind, tmp_path):
    doc = {"field": _FIELD, "vertices": [{"id": "a", "group": {"kind": kind, "n": 3}}]}
    with pytest.raises(ParseError) as info:
        parse_spec_dict(doc)
    assert str(info.value) == f"<input>: vertices[0]: unknown group kind {kind!r}"
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = f"parse error: {path}: vertices[0]: unknown group kind {kind!r}\n"
    assert run(path) == (message, EXIT_INVALID)


def _d15_extension(**changes):
    entry = json.loads((FIXTURES / "extension_d15_k5.json").read_text(encoding="utf-8"))["entries"][0]
    entry.update(changes)
    return {"entries": [entry]}


_NO_VERTICES = _d15_extension()
del _NO_VERTICES["entries"][0]["vertices"]
_FOLD_FLAG_STRING = _d15_extension()
_FOLD_FLAG_STRING["entries"][0]["cusps"][0]["fold_on_attach"] = "false"


@pytest.mark.parametrize(
    "name, extension",
    [
        (5, None),
        ("a\0b", None),
        ("ext.json", {"entries": 5}),
        ("ext.json", _NO_VERTICES),
        ("ext.json", _d15_extension(context=[5])),
        ("ext.json", _d15_extension(context={"char_K": 0, "p": 4})),
        (
            "ext.json",
            _d15_extension(
                embed_traces=[
                    {
                        "edge_group": {"kind": "dihedral", "n": 5},
                        "kind": "iso",
                        "mark_map": {"c0": "mark"},
                    }
                ]
            ),
        ),
        (
            "ext.json",
            _d15_extension(
                embed_traces=[
                    {
                        "edge_group": {"kind": "dihedral", "n": 5},
                        "kind": "iso",
                        "cusp_map": {"c1": "c9"},
                    }
                ]
            ),
        ),
        ("ext.json", _FOLD_FLAG_STRING),
        ("ext.json", _d15_extension(context={"char_K": 0, "p": 5.5})),
    ],
    ids=[
        "name-not-a-string", "name-with-nul", "entries-not-a-list", "entry-without-vertices",
        "context-not-an-object", "p-not-prime", "mark-map-value-not-a-pair",
        "embed-trace-to-unknown-cusp", "fold-on-attach-string", "p-float",
    ],
)
def test_run_malformed_extension_is_parse_error(name, extension, tmp_path):
    spec = json.loads(fixture("d15_chain_k5.json").read_text(encoding="utf-8"))
    spec["catalog_extension"] = name
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    if extension is not None:
        (tmp_path / "ext.json").write_text(json.dumps(extension), encoding="utf-8")
    text, code = run(path)
    assert code == EXIT_INVALID
    assert text.startswith("parse error: ") and text.count("\n") == 1


def test_run_rejects_an_extension_entry_the_catalog_never_reads(tmp_path):
    # At p = 7 every D7 tree is the built-in star; an entry for it used to load and be ignored.
    d7, c2 = {"kind": "dihedral", "n": 7}, {"kind": "cyclic", "n": 2}
    entry = {
        "group": d7,
        "context": {"char_K": 0, "p": 7},
        "vertices": [{"id": "v0", "group": d7}],
        "cusps": [
            {"id": "x0", "base": "v0", "group": c2},
            {"id": "x1", "base": "v0", "group": c2},
            {"id": "x2", "base": "v0", "group": {"kind": "cyclic", "n": 7}},
        ],
    }
    (tmp_path / "ext.json").write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    spec = {
        "field": {"char_K": 0, "p": 7},
        "catalog_extension": "ext.json",
        "vertices": [{"id": "a", "group": d7}],
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run(path) == (
        f"parse error: {path}: catalog_extension: {tmp_path / 'ext.json'}: entries[0]: "
        "entry for D7 at p=7 is never read (needs p <= 5 dividing its order)\n",
        EXIT_INVALID,
    )


@pytest.mark.parametrize("value", [0, None, ["c"]], ids=["number", "null", "list"])
def test_run_extension_id_that_is_not_a_string_is_one_parse_error(value, tmp_path):
    ext = _d15_extension()
    ext["entries"][0]["cusps"][0]["id"] = value
    (tmp_path / "ext.json").write_text(json.dumps(ext), encoding="utf-8")
    spec = json.loads(fixture("d15_chain_k5.json").read_text(encoding="utf-8"))
    spec["catalog_extension"] = "ext.json"
    (tmp_path / "in.json").write_text(json.dumps(spec), encoding="utf-8")
    assert run(tmp_path / "in.json") == (
        f"parse error: {tmp_path / 'in.json'}: catalog_extension: {tmp_path / 'ext.json'}: "
        f"entries[0]: id {value!r} must be a string, got {type(value).__name__}\n",
        EXIT_INVALID,
    )


def _g(kind, **params):
    return dict(kind=kind, **params)


def _run_triangle(tmp_path, *entries):
    """Run A5 -[D5]- D10 at p = 5 with the given extension entries."""
    spec = {
        "field": {"char_K": 0, "p": 5},
        "catalog_extension": "ext.json",
        "vertices": [{"id": "a", "group": _g("icosahedral")}, {"id": "d", "group": _g("dihedral", n=10)}],
        "edges": [{"id": "e0", "from": "a", "to": "d", "group": _g("dihedral", n=5)}],
    }
    (tmp_path / "ext.json").write_text(json.dumps({"entries": list(entries)}), encoding="utf-8")
    (tmp_path / "in.json").write_text(json.dumps(spec), encoding="utf-8")
    return run(tmp_path / "in.json")


@pytest.mark.parametrize(
    "ends, got",
    [(["v0", "v1", "v9"], "list of 3"), (["v0"], "list of 1"), ("v0v1", "str")],
    ids=["three-names", "one-name", "string"],
)
def test_main_rejects_extension_edge_ends_that_are_not_a_pair(ends, got, tmp_path, capsys):
    d10 = {
        "group": _g("dihedral", n=10),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": v, "group": _g("dihedral", n=10)} for v in ("v0", "v1")],
        "internal_edges": [{"id": "e0", "ends": ends, "group": _g("cyclic", n=2)}],
        "cusps": [
            {"id": "c0", "base": "v0", "group": _g("cyclic", n=2)},
            {"id": "c1", "base": "v1", "group": _g("cyclic", n=2)},
            {"id": "c2", "base": "v1", "group": _g("cyclic", n=10)},
        ],
    }
    _run_triangle(tmp_path, d10)
    capsys.readouterr()
    assert main([str(tmp_path / "in.json")]) == EXIT_INVALID
    assert capsys.readouterr() == (
        f"parse error: {tmp_path / 'in.json'}: catalog_extension: {tmp_path / 'ext.json'}: "
        f"entries[0]: edge e0: ends must be a pair, got {got}\n",
        "",
    )


def _load_error(tmp_path, reason):
    """The one line of an extension that fails at load, as ``_run_triangle`` writes it;
    it names the extension file, as ``parse_extension``'s errors do."""
    return f"parse error: {tmp_path / 'in.json'}: catalog_extension: {tmp_path / 'ext.json'}: {reason}\n"


def _run_a5_extension(tmp_path, cusp_map, mark_map, *entries):
    """Run the triangle with an extension A5 tree (replacing the built-in
    one) whose fold trace into D10 has the given maps; ``entries`` are
    further extension entries."""
    a5 = {
        "group": _g("icosahedral"),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "v0", "group": _g("icosahedral")}, {"id": "v1", "group": _g("dihedral", n=5)}],
        "internal_edges": [{"id": "e0", "ends": ["v0", "v1"], "group": _g("dihedral", n=5)}],
        "cusps": [
            {"id": "c0", "base": "v0", "group": _g("cyclic", n=3)},
            {"id": "c1", "base": "v1", "group": _g("cyclic", n=2)},
            {"id": "c2", "base": "v1", "group": _g("cyclic", n=5)},
        ],
        "embed_traces": [
            {
                "edge_group": _g("dihedral", n=5),
                "kind": "fold",
                "vertex_map": {"v0": "v1"},
                "cusp_map": cusp_map,
                "mark_map": mark_map,
            }
        ],
    }
    return _run_triangle(tmp_path, a5, *entries)


_D10_RENAMED = {
    "group": _g("dihedral", n=10),
    "context": {"char_K": 0, "p": 5},
    "vertices": [{"id": "x0", "group": _g("dihedral", n=10)}],
    "cusps": [
        {
            "id": "k0",
            "base": "x0",
            "group": _g("cyclic", n=2),
            "marked_point": {"group": _g("cyclic", n=2)},
            "fold_on_attach": True,
        },
        {"id": "k1", "base": "x0", "group": _g("cyclic", n=2)},
        {"id": "k2", "base": "x0", "group": _g("cyclic", n=10)},
    ],
}
_A5_RENAMED = {
    "group": _g("icosahedral"),
    "context": {"char_K": 0, "p": 5},
    "vertices": [{"id": "x0", "group": _g("icosahedral")}, {"id": "x1", "group": _g("dihedral", n=5)}],
    "internal_edges": [{"id": "e0", "ends": ["x0", "x1"], "group": _g("dihedral", n=5)}],
    "cusps": [
        {"id": "c0", "base": "x0", "group": _g("cyclic", n=3)},
        {"id": "c1", "base": "x1", "group": _g("cyclic", n=2)},
        {"id": "c2", "base": "x1", "group": _g("cyclic", n=5)},
    ],
}


@pytest.mark.parametrize(
    "entry, target",
    [(_D10_RENAMED, "D10) at vertex d"), (_A5_RENAMED, "A5) at vertex a")],
    ids=["d10", "a5"],
)
def test_run_extension_tree_without_traces_admits_no_gluing(entry, target, tmp_path):
    # The built-in traces name the built-in tree's ids, so they never glue
    # into an extension tree; these entries name no D5 trace of their own.
    text, code = _run_triangle(tmp_path, entry)
    assert code == EXIT_INVALID
    assert text == (
        "validation failed:\n"
        f"- edge e0: no attachment trace of T*(D5) into T*({target}; gluing inadmissible\n"
    )


@pytest.mark.parametrize(
    "cusp_map, mark_map, reason",
    [
        (
            {"c1": "c1", "c2": "c2", "zz": "c1"},
            {"c0": ["vertex", "v0"]},
            "the cusp map must send exactly ['c1', 'c2'] onto cusps",
        ),
        (
            {"c1": "c1", "c2": "c2"},
            {"c0": ["vertex", "v0"], "zz": ["vertex", "v1"]},
            "the mark map must send exactly ['c0']",
        ),
    ],
    ids=["cusp-key-without-partner", "mark-key-not-an-edge-tree-cusp"],
)
def test_run_printed_traces_with_stray_keys_are_rejected(cusp_map, mark_map, reason, tmp_path):
    # The fold trace names a cusp the D5 edge tree does not have, so it fails
    # when the extension loads, before any D10 trace could disagree with it.
    text, code = _run_a5_extension(tmp_path, cusp_map, mark_map)
    assert code == EXIT_INVALID
    assert text == _load_error(tmp_path, f"entry for A5 at p=5: fold trace of D5 into A5: {reason}")


def test_run_printed_mark_covering_no_fold_tree_edge_is_rejected(tmp_path):
    # The mark of c0 lands on v1, the base of c0's image: the initial segment
    # would be a self-loop at v1 instead of the A5 tree's edge v0 -- v1.
    text, code = _run_a5_extension(tmp_path, {"c1": "c1", "c2": "c2"}, {"c0": ["vertex", "v1"]})
    assert code == EXIT_INVALID
    assert text == _load_error(
        tmp_path, "entry for A5 at p=5: fold trace of D5 into A5: the marks must land on neighbours of v1"
    )


def _d10_with_d5_trace(**trace):
    """An extension D10 tree shaped like the built-in one, with one D5 trace."""
    c2 = _g("cyclic", n=2)
    marked = {"marked_point": {"group": c2}, "fold_on_attach": True}
    return {
        "group": _g("dihedral", n=10),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "v0", "group": _g("dihedral", n=10)}],
        "cusps": [
            {"id": "c0", "base": "v0", "group": c2, **marked},
            {"id": "c1", "base": "v0", "group": c2},
            {"id": "c2", "base": "v0", "group": _g("cyclic", n=10)},
        ],
        "embed_traces": [dict(edge_group=_g("dihedral", n=5), **trace)],
    }


def test_run_printed_marks_naming_one_site_twice_are_rejected(tmp_path):
    # An extension D5 edge tree with two marked cusps, c0 and c1. The A5 fold
    # trace marks both; the extension D10 tree's iso trace sends both marks to its
    # one marked site c0, which only one mark can use up.
    c2 = _g("cyclic", n=2)
    marked = {"group": c2, "marked_point": {"group": c2}, "fold_on_attach": True}
    d5 = {
        "group": _g("dihedral", n=5),
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "v0", "group": _g("dihedral", n=5)}],
        "cusps": [
            {"id": "c0", "base": "v0", **marked},
            {"id": "c1", "base": "v0", **marked},
            {"id": "c2", "base": "v0", "group": _g("cyclic", n=5)},
        ],
    }
    d10 = _d10_with_d5_trace(
        kind="iso",
        vertex_map={"v0": "v0"},
        cusp_map={"c2": "c2"},
        mark_map={"c0": ["mark", "c0"], "c1": ["mark", "c0"]},
    )
    marks = {"c0": ["vertex", "v0"], "c1": ["vertex", "v0"]}
    text, code = _run_a5_extension(tmp_path, {"c2": "c2"}, marks, d10, d5)
    assert code == EXIT_INVALID
    assert text == _load_error(
        tmp_path, "entry for D10 at p=5: iso trace of D5 into D10: the marks must land on distinct marked cusps"
    )


def _run_printed(tmp_path, vertices, edges):
    """Run a char-0, p = 5 input of D5 edges between built-in printed trees."""
    spec = {
        "field": {"char_K": 0, "p": 5},
        "vertices": [{"id": v, "group": group} for v, group in vertices],
        "edges": [
            {"id": e, "from": a, "to": b, "group": _g("dihedral", n=5)} for e, a, b in edges
        ],
    }
    (tmp_path / "in.json").write_text(json.dumps(spec), encoding="utf-8")
    return run(tmp_path / "in.json")


def test_run_pins_each_printed_gluing_rejection(tmp_path):
    # Gluing rejects what depends on the input: two ends that both fold or are both
    # tree isomorphisms, and a vertex in a second printed gluing.
    d10, d20, a5 = _g("dihedral", n=10), _g("dihedral", n=20), _g("icosahedral")
    runs = [
        (
            _run_printed(tmp_path, [("a", a5), ("b", a5)], [("e0", "a", "b")]),
            "unsupported printed gluing (both morphisms fold)",
        ),
        (
            _run_printed(tmp_path, [("d", d10), ("f", d20)], [("e0", "d", "f")]),
            "unsupported printed gluing (both morphisms are tree isomorphisms)",
        ),
    ]
    for (text, code), reason in runs:
        assert (text, code) == (f"realization rejected: edge e0: {reason}\n", EXIT_INVALID)
    text, code = _run_printed(
        tmp_path, [("a", a5), ("d", d10), ("f", d20)], [("e0", "a", "d"), ("e1", "a", "f")]
    )
    assert (text, code) == (
        "realization rejected: edge e1: vertex a already used by a printed-tree gluing\n",
        EXIT_INVALID,
    )
    # Bad trace data fails when its extension loads, before anything is glued.
    cusp_map, fold_mark, iso_mark = {"c1": "c1", "c2": "c2"}, ["vertex", "v0"], ["mark", "c0"]
    fold_d10 = _d10_with_d5_trace(
        kind="fold", vertex_map={"v0": "v0"}, cusp_map=cusp_map, mark_map={"c0": fold_mark}
    )
    iso_d10 = _d10_with_d5_trace(kind="iso", cusp_map=cusp_map, mark_map={"c0": iso_mark})
    loads = [
        (_run_triangle(tmp_path, fold_d10), "D10", "fold", "the marks must land on neighbours of v0"),
        (_run_triangle(tmp_path, iso_d10), "D10", "iso", "the vertex map must send exactly v0 to a vertex"),
        (
            _run_a5_extension(tmp_path, {"c1": "c1"}, {"c0": fold_mark}),
            "A5",
            "fold",
            "the cusp map must send exactly ['c1', 'c2'] onto cusps",
        ),
        (
            _run_a5_extension(tmp_path, cusp_map, {"c0": iso_mark}),
            "A5",
            "fold",
            "the marks must land on neighbours of v1",
        ),
    ]
    for (text, code), g, kind, reason in loads:
        line = _load_error(tmp_path, f"entry for {g} at p=5: {kind} trace of D5 into {g}: {reason}")
        assert (text, code) == (line, EXIT_INVALID)


def test_main_rejects_a_printed_edge_tree_of_two_vertices(tmp_path, capsys):
    # An extension A5 tree shaped like the built-in one, with a fold and an iso
    # trace of itself. Gluing both copies vertex by vertex would keep both
    # copies of its internal edge, a cycle; it used to end in a traceback, and
    # now fails when the extension loads.
    a5, d5 = _g("icosahedral"), _g("dihedral", n=5)
    ids = {"v0": "v0", "v1": "v1"}
    entry = {
        "group": a5,
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "v0", "group": a5}, {"id": "v1", "group": d5}],
        "internal_edges": [{"id": "e0", "ends": ["v0", "v1"], "group": d5}],
        "cusps": [
            {"id": "c0", "base": "v0", "group": _g("cyclic", n=3)},
            {"id": "c1", "base": "v1", "group": _g("cyclic", n=2)},
            {"id": "c2", "base": "v1", "group": _g("cyclic", n=5)},
        ],
        "embed_traces": [
            {"edge_group": a5, "kind": "fold", "vertex_map": ids,
             "cusp_map": {"c1": "c1", "c0": "c0", "c2": "c2"}},
            {"edge_group": a5, "kind": "iso", "vertex_map": ids,
             "cusp_map": {"c0": "c0", "c1": "c1", "c2": "c2"}},
        ],
    }
    spec = {
        "field": {"char_K": 0, "p": 5},
        "catalog_extension": "ext.json",
        "vertices": [{"id": "a", "group": a5}, {"id": "b", "group": a5}],
        "edges": [
            {"id": "e", "from": "a", "to": "b", "group": a5,
             "site_hints": {"from": "c1", "to": "c0"}},
        ],
    }
    (tmp_path / "ext.json").write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    (tmp_path / "in.json").write_text(json.dumps(spec), encoding="utf-8")
    capsys.readouterr()
    assert main([str(tmp_path / "in.json")]) == EXIT_INVALID
    assert capsys.readouterr() == (
        _load_error(
            tmp_path, "entry for A5 at p=5: fold trace of A5 into A5: T*(A5) must have one vertex, not 2"
        ),
        "",
    )


@pytest.mark.parametrize(
    "cusp_map, reason",
    [
        ({"c1": "c2", "c2": "c1"}, "the image c1 of cusp c2 must contain its stabilizer C5"),
        ({"c1": "c2", "c2": "c2"}, "the cusp map must be one to one"),
    ],
    ids=["swapped-images", "one-image-twice"],
)
def test_main_rejects_an_iso_trace_whose_cusp_map_gluing_would_break(
    cusp_map, reason, tmp_path, capsys
):
    # Both loaded. Swapped images failed only in the gluing, on merging C5 with
    # C2; one image used twice realized A5 -[D5]- D10 and exited 0, merging A5's
    # C2 and C5 cusps into one C10 cusp.
    d10 = _d10_with_d5_trace(
        kind="iso", vertex_map={"v0": "v0"}, cusp_map=cusp_map, mark_map={"c0": ["mark", "c0"]}
    )
    capsys.readouterr()
    _run_triangle(tmp_path, d10)  # writes in.json and ext.json
    assert main([str(tmp_path / "in.json")]) == EXIT_INVALID
    assert capsys.readouterr() == (
        _load_error(tmp_path, f"entry for D10 at p=5: iso trace of D5 into D10: {reason}"), ""
    )


def test_main_names_the_extension_file_of_a_duplicate_entry(tmp_path, capsys):
    # The duplicate is found when the catalog is built from the parsed entries.
    maps = {"vertex_map": {"v0": "v0"}, "cusp_map": {"c1": "c1", "c2": "c2"}}
    d10 = _d10_with_d5_trace(kind="iso", mark_map={"c0": ["mark", "c0"]}, **maps)
    capsys.readouterr()
    _run_triangle(tmp_path, d10, d10)
    assert main([str(tmp_path / "in.json")]) == EXIT_INVALID
    assert capsys.readouterr() == (
        _load_error(tmp_path, "duplicate extension entry for D10 at p=5"), ""
    )


def test_reports_print_a_projective_linear_group_with_their_own_field_size():
    # Printed names are kept for the life of the process, per context: PGL2(p^t)
    # prints p^t as a number, so one name per symbol would print a stale field size.
    pgl = {"kind": "proj_linear", "variant": "PGL", "t": 1}
    for p, size in ((2, 2), (3, 3), (2, 2)):
        field = {"char_K": p, "p": p, "m": 2}
        report = build_report(
            parse_spec_dict({"field": field, "vertices": [{"id": "v", "group": pgl}]}), Catalog()
        )
        assert f"\n  v:v0: PGL2({size})\n" in report.render()
        assert f'"v:v0" [shape=ellipse, label="PGL2({size})"]' in emit_dot(report.graph)


def test_run_builtin_traces_into_a_replaced_edge_tree_fail_before_gluing(tmp_path):
    # An extension T*(D5) with its own ids: the built-in A5 and D10 traces name
    # the built-in tree's v0 and c0-c2, so the trace table rejects them before
    # any edge glues. It used to fail in the gluing, on the vertex map.
    c2, d5 = _g("cyclic", n=2), _g("dihedral", n=5)
    entry = {
        "group": d5,
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "x0", "group": d5}],
        "cusps": [
            {"id": "k0", "base": "x0", "group": c2, "marked_point": {"group": c2},
             "fold_on_attach": True},
            {"id": "k1", "base": "x0", "group": c2},
            {"id": "k2", "base": "x0", "group": _g("cyclic", n=5)},
        ],
    }
    assert _run_triangle(tmp_path, entry) == (
        "validation failed:\n"
        "- edge e0: fold trace of D5 into A5: the vertex map must send exactly x0 to a vertex\n",
        EXIT_INVALID,
    )


def test_main_rejects_an_extension_internal_edge_its_ends_cannot_hold(tmp_path, capsys):
    # A D15 tree whose edge between its D15 and D5 vertices carries A5 used to
    # load; the realized graph then failed the structural check (exit 1) with
    # "incident stabilizer A5 is not contained in D15".
    d15 = _g("dihedral", n=15)
    entry = {
        "group": d15,
        "context": {"char_K": 0, "p": 5},
        "vertices": [{"id": "v0", "group": d15}, {"id": "v1", "group": _g("dihedral", n=5)}],
        "internal_edges": [{"id": "e0", "ends": ["v0", "v1"], "group": _g("icosahedral")}],
        "cusps": [
            {"id": "c0", "base": "v0", "group": _g("cyclic", n=2)},
            {"id": "c1", "base": "v1", "group": _g("cyclic", n=2)},
            {"id": "c2", "base": "v0", "group": _g("cyclic", n=15)},
        ],
    }
    spec = json.loads(fixture("d15_chain_k5.json").read_text(encoding="utf-8"))
    spec["catalog_extension"] = "ext.json"
    (tmp_path / "ext.json").write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    (tmp_path / "in.json").write_text(json.dumps(spec), encoding="utf-8")
    capsys.readouterr()
    assert main([str(tmp_path / "in.json")]) == EXIT_INVALID
    assert capsys.readouterr() == (
        _load_error(tmp_path, "entries[0]: edge e0: stabilizer A5 not contained in D15"),
        "",
    )


def test_run_edge_group_without_a_tree_glues_nowhere(tmp_path):
    # At p = 5 no built-in tree serves D15, so a D15 edge has no gluing data.
    d30 = _g("dihedral", n=30)
    spec = {
        "field": {"char_K": 0, "p": 5},
        "vertices": [{"id": "a", "group": d30}, {"id": "b", "group": d30}],
        "edges": [{"id": "e", "from": "a", "to": "b", "group": _g("dihedral", n=15)}],
    }
    (tmp_path / "in.json").write_text(json.dumps(spec), encoding="utf-8")
    assert run(tmp_path / "in.json") == (
        "validation failed:\n"
        "- edge e: edge group not Borel/cyclic/printed (D15 has no gluing data in this context)\n",
        EXIT_INVALID,
    )


def test_run_genus_loop_named_like_a_tree_edge_is_rejected(tmp_path):
    spec = json.loads(fixture("triangle_k5.json").read_text(encoding="utf-8"))
    spec["genus_edges"] = [{"id": "a:e0", "from": "a", "to": "d"}]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    text, code = run(path)
    assert (text, code) == (
        "realization rejected: realized id a:e0 names two edges; rename an id\n",
        EXIT_INVALID,
    )


def test_run_conservation_failure_is_a_formula_failure(monkeypatch):
    # The report's verdict is the one place the direct count meets the general formula.
    monkeypatch.setattr(
        "katograph.cli.cusp_count_general", lambda checked: cusp_count_general(checked) + 1
    )
    text, code = run(fixture("triangle_k5.json"))
    assert code == EXIT_CHECK_FAILED
    assert "direct count:    3\ngeneral formula: 4\n" in text
    assert "agreement: MISMATCH\n" in text


def test_run_out_dir_that_is_a_file_is_an_output_error(tmp_path):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    text, code = run(fixture("triangle_k5.json"), out_dir=out)
    assert code == EXIT_INVALID
    assert text.startswith("output error: ") and text.count("\n") == 1
    assert str(out) in text


_HUGE_T = 10**9


@pytest.mark.parametrize(
    "data, expected",
    [
        ({"field": {"char_K": 0, "p": 1000000000000000003}, "vertices": []}, "parse error: "),
        ({"field": {"char_K": 3, "p": 3, "m": _HUGE_T}, "vertices": []}, "parse error: "),
        ({"field": {"char_K": 2, "p": 2, "m": 64}, "vertices": []}, "parse error: "),
        (
            {
                "field": {"char_K": 3, "p": 3},
                "vertices": [{"id": "a", "group": {"kind": "borel", "t": _HUGE_T, "n": 2}}],
            },
            "validation failed:",
        ),
        (
            {
                "field": {"char_K": 3, "p": 3},
                "vertices": [
                    {"id": "a", "group": {"kind": "proj_linear", "variant": "PGL", "t": _HUGE_T}},
                    {"id": "b", "group": {"kind": "borel", "t": 1, "n": 2}},
                ],
                "edges": [{"id": "e", "from": "a", "to": "b", "derive": True}],
            },
            "validation failed:",
        ),
    ],
    ids=["huge-p", "huge-m", "p-to-the-m-too-large", "huge-borel-rank", "huge-pl-exponent-derived"],
)
def test_run_huge_field_parameters_are_rejected(data, expected, tmp_path):
    # Unbounded, these would run trial division to 10^9 or compute p ** t for t = 10^9.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    text, code = run(path)
    assert code == EXIT_INVALID
    assert text.startswith(expected)


def test_run_rejects_a_site_hint_that_is_not_a_string(tmp_path):
    # A trivial edge's hints are never matched against sites, so only the
    # contract check stops them before the report echoes them.
    path = tmp_path / "hints.json"
    path.write_text(
        json.dumps(
            {
                "field": {"char_K": 0, "p": 5},
                "vertices": [
                    {"id": "a", "group": {"kind": "trivial"}},
                    {"id": "b", "group": {"kind": "trivial"}},
                ],
                "edges": [
                    {
                        "id": "e", "from": "a", "to": "b", "group": {"kind": "trivial"},
                        "site_hints": {"from": [1, {"z": 2}], "to": 5},
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    assert run(path) == (
        "validation failed:\n"
        "- edge e: site hint must be a string, got list\n"
        "- edge e: site hint must be a string, got int\n",
        EXIT_INVALID,
    )


def test_run_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": {"char_K": 3, "p": 3, "m": 1},
                "vertices": [{"id": "a", "group": {"kind": "tetrahedral"}}],
            }
        ),
        encoding="utf-8",
    )
    text, code = run(bad)
    assert code == EXIT_INVALID
    assert "validation failed" in text
    # A file's ids and ends are checked as they are, not turned into strings.
    doc = {
        "field": {"char_K": 0, "p": 7},
        "vertices": [
            {"id": None, "group": {"kind": "cyclic", "n": 2}},
            {"id": 7, "group": {"kind": "trivial"}},
        ],
        "edges": [{"id": ["e"], "from": None, "to": 7, "group": {"kind": "trivial"}}],
    }
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert run(bad) == (
        "validation failed:\n"
        "- vertex None: id must be a string, got NoneType\n"
        "- vertex 7: id must be a string, got int\n"
        "- edge ['e']: id must be a string, got list\n",
        EXIT_INVALID,
    )


def test_run_names_a_file_with_a_line_break_on_one_line(tmp_path):
    missing, malformed, ext = (tmp_path / f"{n}\nname.json" for n in ("no", "bad", "ext"))
    malformed.write_text("{", encoding="utf-8")
    ext.write_text(json.dumps({"entries": 5}), encoding="utf-8")
    spec = json.loads(fixture("d15_chain_k5.json").read_text(encoding="utf-8"))
    spec["catalog_extension"] = ext.name
    (tmp_path / "in.json").write_text(json.dumps(spec), encoding="utf-8")
    assert [run(path) for path in (missing, malformed, tmp_path / "in.json")] == [
        (
            f"parse error: {str(missing)!r}: [Errno 2] No such file or directory: "
            f"{str(missing)!r}\n",
            EXIT_INVALID,
        ),
        (
            f"parse error: {str(malformed)!r}: line 1, column 2: "
            "Expecting property name enclosed in double quotes\n",
            EXIT_INVALID,
        ),
        (
            f"parse error: {tmp_path / 'in.json'}: catalog_extension: {str(ext)!r}: "
            "extension document needs a top-level 'entries' list\n",
            EXIT_INVALID,
        ),
    ]


def test_run_strict_turns_warnings_into_failure(tmp_path):
    tripod = tmp_path / "tripod.json"
    tripod.write_text(
        json.dumps(
            {
                "field": {"char_K": 3, "p": 3, "m": 2},
                "vertices": [
                    {"id": "a", "group": {"kind": "borel", "t": 2, "n": 1}},
                    {"id": "b", "group": {"kind": "borel", "t": 2, "n": 1}},
                ],
                "edges": [
                    {"id": "e0", "from": "a", "to": "b", "group": {"kind": "borel", "t": 2, "n": 1}}
                ],
            }
        ),
        encoding="utf-8",
    )
    _text, code = run(tripod)
    assert code == EXIT_OK
    _text, code = run(tripod, strict=True)
    assert code == EXIT_CHECK_FAILED


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "out"
    text, code = run(fixture("triangle_k5.json"), out_dir=out)
    assert code == EXIT_OK
    assert (out / "report.txt").read_text(encoding="utf-8") == text
    report = build_report(*parse_spec(fixture("triangle_k5.json")))
    assert (out / "kato.dot").read_text(encoding="utf-8") == emit_dot(report.graph)
    assert (out / "skeleton.dot").read_text(encoding="utf-8") == emit_dot(report.skeleton)


# -- report ------------------------------------------------------------------------


def test_render_pins_every_conditional_line():
    # The golden reports cover only passing states; this one takes every other
    # branch: no cusps, a formula mismatch without a char-0 count, a non-ordinary
    # verdict, messages under both structural checks, an empty plan and warnings.
    report = build_report(*parse_spec(fixture("triangle_k5.json")))
    report = report._replace(
        graph=report.graph._replace(cusps=()),
        general=report.direct + 1,
        char0=None,
        ordinary=False,
        structure=StructuralReport(
            ("vertex a: 4 cusps and edges",),
            ("vertex a: A5 not generated", "vertex d: D10 not generated"),
        ),
        plan=SeparationPlan((), ()),
        warnings=("first warning", "second warning"),
    )
    assert report.render() == dedent(
        """\
    == input ==
    {
      "edges": [
        {
          "from": "a",
          "group": {
            "kind": "dihedral",
            "n": 5
          },
          "id": "e0",
          "to": "d"
        }
      ],
      "field": {
        "char_K": 0,
        "m": 1,
        "p": 5
      },
      "genus_edges": [],
      "vertices": [
        {
          "group": {
            "kind": "icosahedral"
          },
          "id": "a"
        },
        {
          "group": {
            "kind": "dihedral",
            "n": 10
          },
          "id": "d"
        }
      ]
    }

    == realized kato graph ==
    vertices (2):
      a:v0: A5
      a:v1: D10
    finite edges (1):
      a:e0: a:v0 -- a:v1 [D5]
    cusps (0):
    genus loops (0):
    genus (first Betti number): 0

    == cusp counts ==
    direct count:    3
    general formula: 4
    agreement: MISMATCH

    == branch points ==
    (none)

    == ordinarity ==
    ordinary: NO

    == contraction ==
    vertices (2):
      a:v0: A5
      a:v1: D10
    edges (1):
      a:e0: a:v0 -- a:v1 [D5]
    genus: 0

    == structural check ==
    (a) vertex valency bound: VIOLATED
        vertex a: 4 cusps and edges
    (b) generation whitelist: VIOLATED
        vertex a: A5 not generated
        vertex d: D10 not generated

    == separation plan ==
    (no branch points)

    == warnings ==
    - first warning
    - second warning
        """
    )


# -- determinism -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["triangle_k5.json", "borel_p2_t2_s4.json", "schottky_genus2.json"]
)
def test_byte_identical_across_runs(name, tmp_path):
    t1, c1 = run(fixture(name), out_dir=tmp_path / "r1")
    t2, c2 = run(fixture(name), out_dir=tmp_path / "r2")
    assert t1 == t2 and c1 == c2
    for f in ("report.txt", "kato.dot", "skeleton.dot"):
        assert (tmp_path / "r1" / f).read_bytes() == (tmp_path / "r2" / f).read_bytes()


def test_realize_and_contract_list_each_tuple_by_id():
    # emit_dot and render print each tuple in the order given, so both rely on this.
    rng = random.Random(20260808)
    catalog = Catalog()
    for _ in range(1000):
        graph = realize(check_input(random_input(rng), catalog))
        skeleton = contract(graph)
        parts = (graph.vertices, graph.finite_edges, graph.cusps, graph.genus_loops)
        for part in parts + (skeleton.vertices, skeleton.edges):
            ids = [x.id for x in part]
            assert ids == sorted(ids)


def test_dot_content_triangle():
    raw, cat = parse_spec(fixture("triangle_k5.json"))
    report = build_report(raw, cat)
    dot = emit_dot(report.graph)
    assert dot.count("shape=ellipse") == 2
    assert dot.count("shape=point") == 3
    assert 'label="D5"' in dot
    assert dot.count("dir=none") == 1  # one finite edge, no genus loops
    assert emit_dot(report.graph) == dot


def test_dot_empty_graph():
    from katograph.graphs import KatoGraph
    from katograph.groups import FieldContext

    dot = emit_dot(KatoGraph(FieldContext(0, 7, 1), (), (), (), ()))
    assert dot.startswith("digraph kato {")
    assert "ellipse" not in dot


def test_dot_escapes_quotes_in_ids():
    from katograph.graphs import GraphCusp, GraphVertex, KatoGraph

    # Graphviz reads \" as a quote and any other backslash as itself.
    graph = KatoGraph(
        FieldContext(0, 7, 1),
        (GraphVertex('a"b:v0', dihedral(3)), GraphVertex("c\\d:v0", cyclic(2))),
        (),
        (GraphCusp('a"b:c0', 'a"b:v0', cyclic(3)),),
        (),
    )
    assert emit_dot(graph).splitlines()[3:] == [
        '  "a\\"b:v0" [shape=ellipse, label="D3"];',
        '  "c\\d:v0" [shape=ellipse, label="C2"];',
        '  "a\\"b:c0@end" [shape=point, label=""];',
        '  "a\\"b:v0" -> "a\\"b:c0@end" [label="C3"];',
        "}",
    ]


def test_dot_genus_loops_dashed():
    raw, cat = parse_spec(fixture("schottky_genus2.json"))
    report = build_report(raw, cat)
    dot = emit_dot(report.graph)
    assert dot.count("style=dashed") == 2


# -- main entry point --------------------------------------------------------------------


def test_main_exit_codes(capsys):
    assert main([str(fixture("triangle_k5.json"))]) == EXIT_OK
    capsys.readouterr()
    assert main([str(fixture("corrupted_e_edge.json"))]) == EXIT_CHECK_FAILED
    capsys.readouterr()
    assert main([str(fixture("malformed.json"))]) == EXIT_INVALID
    capsys.readouterr()


def test_main_rejects_an_id_with_a_lone_surrogate(tmp_path):
    # Only a real process shows this: its stdout encodes to UTF-8, which a lone
    # surrogate cannot, while pytest's captured stdout never encodes.
    path = tmp_path / "surrogate.json"
    vertex = {"id": "a\ud800", "group": {"kind": "dihedral", "n": 3}}
    doc = {"field": {"char_K": 0, "p": 7}, "vertices": [vertex]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "katograph.cli", str(path)],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (EXIT_INVALID, "")
    assert result.stdout == "validation failed:\n- vertex 'a\\ud800': id must be printable\n"


def test_main_fuzz_smoke(capsys):
    assert main(["--fuzz", "25", "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "25 inputs, 0 failures" in out


@pytest.mark.parametrize("count", ["-3", "x"])
def test_main_fuzz_count_must_be_a_count(count, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--fuzz", count])
    assert exc.value.code == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --fuzz: expected a count of zero or more, got '{count}'" in err


def test_run_fuzz_function():
    text, code = run_fuzz(40, 11)
    assert code == EXIT_OK and "0 failures" in text


def test_run_fuzz_counts_non_ordinary_reports(monkeypatch, capsys):
    import katograph.cli as cli

    real = cli.build_report
    monkeypatch.setattr(
        cli, "build_report", lambda raw, cat: real(raw, cat)._replace(ordinary=False)
    )
    text, code = run_fuzz(5, 11)
    assert (text, code) == ("fuzz: 5 inputs, 5 failures (seed 11)\n", EXIT_CHECK_FAILED)
    assert capsys.readouterr().err.count("ordinarity") == 5


def test_run_fuzz_prints_a_reproducer_for_each_failure(monkeypatch, capsys):
    import katograph.cli as cli

    real = cli.cusp_count_general
    calls = []

    def off_by_one_every_other(checked):
        calls.append(checked)
        return real(checked) + (len(calls) % 2 == 0)

    monkeypatch.setattr(cli, "cusp_count_general", off_by_one_every_other)
    text, code = run_fuzz(6, 11)
    assert (text, code) == ("fuzz: 6 inputs, 3 failures (seed 11)\n", EXIT_CHECK_FAILED)
    blocks = capsys.readouterr().err.split("\n}\n")
    assert blocks[-1] == ""
    rng = random.Random(11)
    draws = [random_input(rng) for _ in range(6)]
    for i, block in zip((1, 3, 5), blocks):
        failure, header, echo = block.split("\n", 2)
        assert failure == f"input {i}: formula, structure or ordinarity check failed"
        assert header == f"reproducer (seed 11, input {i}):"
        assert parse_spec_dict(json.loads(echo + "\n}")) == draws[i]

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

from katograph.analysis import SeparationPlan, StructuralReport, contract, cusp_count_general
from katograph.catalog import Catalog, _Kept
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
    RealizeError,
    check_input,
    realize,
    validate_input,
)
from katograph.groups import FieldContext, borel, canonicalize, cyclic, dihedral
from inputs import (
    a5_renamed_entry,
    d5_renamed_entry,
    d10_entry,
    d10_renamed_entry,
    d15_chain_spec,
    d15_entry,
    document,
    g,
    golden_corpus,
    triangle_spec,
    write_input,
)

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
    text, code = run(write_input(tmp_path, doc))
    assert code == EXIT_INVALID
    assert "trivial stabilizer" in text
    doc["genus_edges"][0]["group"] = {"kind": "trivial"}
    _text, code = run(write_input(tmp_path, doc))
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
_EDGE = {"id": "e", "from": "a", "to": "b", "group": {"kind": "trivial"}}


@pytest.mark.parametrize(
    "data",
    [
        [_FIELD, _VERTICES],
        {"field": _FIELD, "vertices": [{"id": "a", "group": {"kind": "cyclic", "n": "x"}}]},
        {"field": _FIELD, "vertices": _VERTICES, "edges": [["e", "a", "b"]]},
        {"field": _FIELD, "vertices": _VERTICES, "edges": [_EDGE | {"site_hints": ["c0"]}]},
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
        {"field": _FIELD, "vertices": _VERTICES, "edges": [_EDGE | {"derive": "false"}]},
        {"field": {"char_K": 0, "p": "7"}, "vertices": []},
        # A key the parser would not read is an error, not dropped.
        {"field": _FIELD, "vertices": _VERTICES, "edges": [_EDGE | {"site_hints": {"form": "c9"}}]},
        {"field": _FIELD, "vertices": _VERTICES, "edges": [_EDGE | {"derive": True}]},
    ],
    ids=[
        "top-level-list", "non-integer-n", "edge-as-list", "site-hints-as-list",
        "vertices-not-a-list", "edges-null", "genus-edges-not-a-list",
        "p-1e400", "char-K-infinity", "m-minus-infinity", "n-1e400", "t-infinity",
        "integer-too-long", "nesting-too-deep", "not-utf-8",
        "n-float", "p-float", "n-bool", "derive-string", "p-numeric-string",
        "site-hint-typo", "derive-and-group",
    ],
)
def test_run_malformed_shapes_are_parse_errors(data, tmp_path):
    if isinstance(data, bytes):  # a file that json.dumps would not write
        path = tmp_path / "in.json"
        path.write_bytes(data)
    else:
        path = write_input(tmp_path, data)
    text, code = run(path)
    assert code == EXIT_INVALID
    assert text.startswith("parse error: ") and text.count("\n") == 1


@pytest.mark.parametrize(
    "key, item, message",
    [
        ("edges", {"id": "e", "from": "a", "to": "b"}, "edges[0]: needs 'group' or 'derive': true"),
        (
            "edges", _EDGE | {"derive": True},
            "edges[0]: 'group' and 'derive': true exclude each other",
        ),
        (
            "edges", _EDGE | {"site_hints": {"from": "c0", "form": "c9"}},
            "edges[0]: site_hints takes only 'from' and 'to', got ['form']",
        ),
        ("genus_edges", {"id": "g", "from": "a"}, "genus_edges[0]: missing key 'to'"),
        (
            "genus_edges",
            {"id": "g", "from": "a", "to": "a", "group": {"kind": "sporadic"}},
            "genus_edges[0]: unknown group kind 'sporadic'",
        ),
        ("vertices", "a", "vertices[0] must be an object, got str"),
        ("genus_edges", 5, "genus_edges[0] must be an object, got int"),
        ("edges", {"from": "a", "to": "b", "group": {"kind": "trivial"}}, "edges[0]: missing key 'id'"),
    ],
    ids=[
        "edge-without-group", "derive-and-group", "site-hint-typo", "genus-edge-without-end",
        "genus-edge-unknown-kind", "vertex-a-string", "genus-edge-a-number", "edge-without-id",
    ],
)
def test_parse_pins_each_edge_item_error(key, item, message):
    with pytest.raises(ParseError) as info:
        parse_spec_dict({"field": _FIELD, "vertices": _VERTICES, key: [item]})
    assert str(info.value) == f"<input>: {message}"


@pytest.mark.parametrize(
    "field, message",
    [
        (5, "field must be an object, got int"),
        (None, "field must be an object, got NoneType"),
        ({"char_K": 0}, "field: missing key 'p'"),
        ({"char_K": 0, "p": 7, "m": "1"}, "field: m must be an integer, got str"),
        ({"char_K": 0, "p": 4}, "field: residue characteristic 4 is not prime"),
    ],
    ids=["a-number", "null", "without-p", "m-a-string", "p-not-prime"],
)
def test_parse_pins_each_field_error(field, message):
    with pytest.raises(ParseError) as info:
        parse_spec_dict({"field": field, "vertices": _VERTICES})
    assert str(info.value) == f"<input>: {message}"


def test_parse_names_a_missing_field_as_a_missing_key():
    with pytest.raises(ParseError) as info:
        parse_spec_dict({"vertices": _VERTICES})
    assert str(info.value) == "<input>: missing key 'field'"


@pytest.mark.parametrize(
    "kind", [["cyclic"], {"kind": "cyclic"}, 3, None], ids=["list", "object", "number", "null"]
)
def test_parse_a_kind_that_is_not_a_string_is_one_parse_error(kind, tmp_path):
    doc = {"field": _FIELD, "vertices": [{"id": "a", "group": {"kind": kind, "n": 3}}]}
    with pytest.raises(ParseError) as info:
        parse_spec_dict(doc)
    assert str(info.value) == f"<input>: vertices[0]: unknown group kind {kind!r}"
    path = write_input(tmp_path, doc)
    message = f"parse error: {path}: vertices[0]: unknown group kind {kind!r}\n"
    assert run(path) == (message, EXIT_INVALID)


# -- the kept table of group symbols ---------------------------------------------


def _vertex_group(group):
    return {"field": _FIELD, "vertices": [{"id": "a", "group": group}]}


def _group_error(group) -> str:
    with pytest.raises(ParseError) as info:
        parse_spec_dict(_vertex_group(group))
    return str(info.value)


@pytest.mark.parametrize(
    "kept, refused, message",
    [
        (
            {"kind": "cyclic", "n": 1}, {"kind": "cyclic", "n": True},
            "n must be an integer, got bool",
        ),
        (
            {"kind": "cyclic", "n": 3}, {"kind": "cyclic", "n": 3.0},
            "n must be an integer, got float",
        ),
        (
            {"kind": "borel", "t": 1, "n": 2}, {"kind": "borel", "t": True, "n": 2},
            "t must be an integer, got bool",
        ),
    ],
    ids=["n-bool", "n-float", "t-bool"],
)
def test_parse_refuses_a_group_equal_to_a_kept_one_but_not_an_integer(kept, refused, message):
    # True == 1 and 3.0 == 3, with equal hashes, so a table of symbols must not answer for them.
    parse_spec_dict(_vertex_group(kept))
    assert _group_error(refused) == (
        f"<input>: vertices[0]: group parameters must be integers: {message}"
    )


@pytest.mark.parametrize(
    "group, message",
    [
        ({"kind": "cyclic", "n": 0}, "cyclic order must be positive, got 0"),
        (
            {"kind": "proj_linear", "variant": "PGX", "t": 1},
            "projective linear variant must be PGL or PSL, got 'PGX'",
        ),
        ({"kind": "sporadic", "n": 3}, "unknown group kind 'sporadic'"),
    ],
    ids=["cyclic-0", "variant-unknown", "kind-unknown"],
)
def test_parse_a_refused_group_gives_the_same_message_again(group, message):
    for _ in range(2):
        assert _group_error(group) == f"<input>: vertices[0]: {message}"


def test_parse_ignores_extra_group_keys_as_before():
    for _ in range(2):
        doc = _vertex_group({"kind": "borel", "t": 0, "n": 6, "color": "red"})
        assert parse_spec_dict(doc).vertices[0].group == cyclic(6)


def test_parse_builds_each_vertex_edge_and_genus_edge_group_once(monkeypatch):
    import katograph.cli as cli

    built = []

    def counted(raw):
        built.append(raw)
        return canonicalize(raw)

    monkeypatch.setattr(cli, "canonicalize", counted)
    monkeypatch.setattr(cli, "_SYMBOLS", _Kept(cli._SYMBOLS.build))  # nothing kept yet
    groups = [
        {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}, {"kind": "borel", "t": 1, "n": 2}
    ]
    doc = {
        "field": _FIELD,
        "vertices": [{"id": "a", "group": groups[0]}, {"id": "b", "group": groups[0]}],
        "edges": [{"id": "e", "from": "a", "to": "b", "group": groups[1]}],
        "genus_edges": [{"id": "g", "from": "a", "to": "a", "group": groups[2]}],
    }
    first, second = parse_spec_dict(doc), parse_spec_dict(doc)
    assert first == second
    assert (first.vertices[0].group, first.edges[0].group, first.genus_edges[0].group) == (
        cyclic(2), cyclic(3), borel(1, 2)
    )
    assert len(built) == 3  # once per description, over both parses


def test_run_rejects_a_realized_id_that_an_earlier_gluing_merged_away(tmp_path):
    # The D15 tree of input vertex e has its vertex named w, realized as e:w. Edge d
    # folds at e's cusp c1 and ends in an iso at the C2 vertex b, so e:w merges into
    # the smaller b:v0. Edge e then folds at the marked cusp c0 and makes its own
    # vertex e:w: the name is taken although no vertex keeps it any more.
    entry = d15_entry(vertices=[{"id": "w", "group": g("dihedral", n=15)}])
    for c in entry["cusps"]:
        c["base"] = "w"
    c2 = g("cyclic", n=2)
    entry["cusps"][0] |= {"marked_point": {"group": c2}, "fold_on_attach": True}
    spec = {
        "field": {"char_K": 0, "p": 5},
        "vertices": [
            {"id": "e", "group": g("dihedral", n=15)},
            {"id": "b", "group": c2},
            {"id": "f", "group": g("dihedral", n=6)},
        ],
        "edges": [
            {"id": eid, "from": "e", "to": to, "group": c2, "site_hints": {"from": c}}
            for eid, to, c in (("d", "b", "c1"), ("e", "f", "c0"))
        ],
    }
    assert run(write_input(tmp_path, spec, document(entry))) == (
        "realization rejected: realized id e:w names two vertices or cusps; rename an id\n",
        EXIT_INVALID,
    )


def _load_error(tmp_path, reason):
    """The one line of an extension that fails at load, as ``write_input`` writes it;
    it names the extension file, as ``parse_extension``'s errors do."""
    return f"parse error: {tmp_path / 'in.json'}: catalog_extension: {tmp_path / 'ext.json'}: {reason}\n"


@pytest.mark.parametrize(
    "name, data, reason",
    [
        ("ext.json", b'{"entries": [\n', "{ext}: line 2, column 1: Expecting value"),
        (
            "ext.json", b"\xff{}",
            "{ext}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
        ("ext.json", None, "{ext}: [Errno 2] No such file or directory: '{ext}'"),
        ("a\0b", None, "{ext!r}: embedded null byte"),
    ],
    ids=["not-json", "not-utf-8", "missing", "name-with-nul"],
)
def test_main_names_an_extension_file_it_cannot_read(name, data, reason, tmp_path, capsys):
    # The first two used to leave the file out, and name only the input file. A name
    # that is not printable is shown as a literal, so the reason stays one line.
    path = write_input(tmp_path, d15_chain_spec(catalog_extension=name))
    if data is not None:
        (tmp_path / name).write_bytes(data)
    assert main([str(path)]) == EXIT_INVALID
    shown = reason.format(ext=str(tmp_path / name))
    assert capsys.readouterr() == (f"parse error: {path}: catalog_extension: {shown}\n", "")


@pytest.mark.parametrize(
    "value, got", [(5, "int"), ("", "an empty string")], ids=["number", "empty"]
)
def test_main_rejects_a_catalog_extension_that_is_not_a_file_name(value, got, tmp_path, capsys):
    # An empty name used to load no extension, so the D15 vertices failed validation.
    path = write_input(tmp_path, d15_chain_spec(catalog_extension=value))
    assert main([str(path)]) == EXIT_INVALID
    assert capsys.readouterr() == (
        f"parse error: {path}: catalog_extension must be a file name, got {got}\n", ""
    )


@pytest.mark.parametrize(
    "entry, target",
    [(d10_renamed_entry(), "D10) at vertex d"), (a5_renamed_entry(), "A5) at vertex a")],
    ids=["d10", "a5"],
)
def test_run_extension_tree_without_traces_admits_no_gluing(entry, target, tmp_path):
    # The built-in traces name the built-in tree's ids, so they never glue
    # into an extension tree; these entries name no D5 trace of their own.
    text, code = run(write_input(tmp_path, triangle_spec(), document(entry)))
    assert code == EXIT_INVALID
    assert text == (
        "validation failed:\n"
        f"- edge e0: no attachment trace of T*(D5) into T*({target}; gluing inadmissible\n"
    )


def _printed(vertices, edges):
    """A char-0, p = 5 input of D5 edges between built-in printed trees."""
    return {
        "field": {"char_K": 0, "p": 5},
        "vertices": [{"id": v, "group": group} for v, group in vertices],
        "edges": [
            {"id": e, "from": a, "to": b, "group": g("dihedral", n=5)} for e, a, b in edges
        ],
    }


def test_run_pins_each_printed_gluing_rejection(tmp_path):
    # Validation rejects two ends that both fold or are both tree isomorphisms, and a
    # vertex in a second printed gluing: the later edge in id order, not in input order.
    d10, d20, a5 = g("dihedral", n=10), g("dihedral", n=20), g("icosahedral")
    runs = [
        (
            run(write_input(tmp_path, _printed([("a", a5), ("b", a5)], [("e0", "a", "b")]))),
            "unsupported printed gluing (both morphisms fold)",
        ),
        (
            run(write_input(tmp_path, _printed([("d", d10), ("f", d20)], [("e0", "d", "f")]))),
            "unsupported printed gluing (both morphisms are tree isomorphisms)",
        ),
    ]
    for (text, code), reason in runs:
        assert (text, code) == (f"validation failed:\n- edge e0: {reason}\n", EXIT_INVALID)
    spec = _printed([("a", a5), ("d", d10), ("f", d20)], [("e1", "a", "f"), ("e0", "a", "d")])
    assert run(write_input(tmp_path, spec)) == (
        "validation failed:\n- edge e1: vertex a already used by a printed-tree gluing\n",
        EXIT_INVALID,
    )


def test_run_reports_a_missing_trace_with_the_other_faults(tmp_path):
    # Traces are looked up while the input is checked, so an edge without one is named
    # in the same block as a fault of another edge, not once that fault is mended.
    d6 = g("dihedral", n=6)
    spec = {
        "field": {"char_K": 0, "p": 7},
        "vertices": [{"id": v, "group": d6} for v in "abcd"],
        "edges": [
            {"id": "e0", "from": "a", "to": "b", "group": g("cyclic", n=6)},
            {"id": "e1", "from": "b", "to": "c", "group": g("cyclic", n=5)},
        ],
        "genus_edges": [{"id": "g0", "from": "a", "to": "d"}],
    }
    missing = "no attachment trace of T*(C5) into T*(D6) at vertex {}; gluing inadmissible"
    assert run(write_input(tmp_path, spec)) == (
        "validation failed:\n"
        f"- edge e1: {missing.format('b')}\n"
        f"- edge e1: {missing.format('c')}\n"
        "- genus edge g0: endpoints lie in different components; a genus edge must close a loop\n",
        EXIT_INVALID,
    )


def test_main_names_the_extension_file_of_a_duplicate_entry(tmp_path, capsys):
    # The duplicate is found when the catalog is built from the parsed entries.
    extension = document(d10_renamed_entry(), d10_renamed_entry())
    assert main([str(write_input(tmp_path, triangle_spec(), extension))]) == EXIT_INVALID
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
    assert run(write_input(tmp_path, triangle_spec(), document(d5_renamed_entry()))) == (
        "validation failed:\n"
        "- edge e0: fold trace of D5 into A5: the vertex map must send exactly x0 to a vertex\n",
        EXIT_INVALID,
    )


def test_main_rejects_an_extension_internal_edge_its_ends_cannot_hold(tmp_path, capsys):
    # A D15 tree whose edge between its D15 and D5 vertices carries A5 used to
    # load; the realized graph then failed the structural check (exit 1) with
    # "incident stabilizer A5 is not contained in D15".
    entry = d15_entry(
        vertices=[
            {"id": "v0", "group": g("dihedral", n=15)}, {"id": "v1", "group": g("dihedral", n=5)}
        ],
        internal_edges=[{"id": "e0", "ends": ["v0", "v1"], "group": g("icosahedral")}],
    )
    assert main([str(write_input(tmp_path, d15_chain_spec(), document(entry)))]) == EXIT_INVALID
    assert capsys.readouterr() == (
        _load_error(tmp_path, "entries[0]: edge e0: stabilizer A5 not contained in D15"),
        "",
    )


def test_run_edge_group_without_a_tree_glues_nowhere(tmp_path):
    # At p = 5 no built-in tree serves D15, so a D15 edge has no gluing data.
    d30 = g("dihedral", n=30)
    spec = {
        "field": {"char_K": 0, "p": 5},
        "vertices": [{"id": "a", "group": d30}, {"id": "b", "group": d30}],
        "edges": [{"id": "e", "from": "a", "to": "b", "group": g("dihedral", n=15)}],
    }
    assert run(write_input(tmp_path, spec)) == (
        "validation failed:\n"
        "- edge e: edge group not Borel/cyclic/printed (D15 has no gluing data in this context)\n",
        EXIT_INVALID,
    )


def test_run_genus_loop_named_like_a_tree_edge_is_rejected(tmp_path):
    spec = triangle_spec(genus_edges=[{"id": "a:e0", "from": "a", "to": "d"}])
    assert run(write_input(tmp_path, spec)) == (
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
    text, code = run(write_input(tmp_path, data))
    assert code == EXIT_INVALID
    assert text.startswith(expected)


def test_run_rejects_a_site_hint_that_is_not_a_string(tmp_path):
    # A trivial edge's hints are never matched against sites, so only the
    # contract check stops them before the report echoes them.
    spec = {
        "field": {"char_K": 0, "p": 5},
        "vertices": [{"id": v, "group": {"kind": "trivial"}} for v in ("a", "b")],
        "edges": [
            {
                "id": "e", "from": "a", "to": "b", "group": {"kind": "trivial"},
                "site_hints": {"from": [1, {"z": 2}], "to": 5},
            }
        ],
    }
    assert run(write_input(tmp_path, spec)) == (
        "validation failed:\n"
        "- edge e: site hint must be a string, got list\n"
        "- edge e: site hint must be a string, got int\n",
        EXIT_INVALID,
    )


def test_run_validation_error_exit_code(tmp_path):
    spec = {
        "field": {"char_K": 3, "p": 3, "m": 1},
        "vertices": [{"id": "a", "group": {"kind": "tetrahedral"}}],
    }
    text, code = run(write_input(tmp_path, spec))
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
    assert run(write_input(tmp_path, doc)) == (
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
    named = write_input(tmp_path, d15_chain_spec(catalog_extension=ext.name))
    assert [run(path) for path in (missing, malformed, named)] == [
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
            f"parse error: {named}: catalog_extension: {str(ext)!r}: "
            "entries must be a list, got int\n",
            EXIT_INVALID,
        ),
    ]


def test_run_strict_turns_warnings_into_failure(tmp_path):
    b21 = {"kind": "borel", "t": 2, "n": 1}
    tripod = write_input(
        tmp_path,
        {
            "field": {"char_K": 3, "p": 3, "m": 2},
            "vertices": [{"id": "a", "group": b21}, {"id": "b", "group": b21}],
            "edges": [{"id": "e0", "from": "a", "to": "b", "group": b21}],
        },
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


def test_formulas_disagree_when_only_the_char0_count_does():
    report = build_report(*parse_spec(fixture("triangle_k5.json")))
    assert report.formulas_agree and report.passed
    report = report._replace(char0=report.direct + 1)
    assert not report.formulas_agree and not report.passed


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
    catalog = Catalog()
    for raw in golden_corpus():
        graph = realize(check_input(raw, catalog))
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

    # Graphviz reads \\ as a backslash and \" as a quote. So a backslash is doubled
    # before a quote is escaped: neither a\"b nor a trailing backslash may end an id early.
    graph = KatoGraph(
        FieldContext(0, 7, 1),
        (
            GraphVertex('a"b:v0', dihedral(3)),
            GraphVertex('a\\"b:v0', cyclic(2)),
            GraphVertex("a:v0\\", cyclic(3)),
        ),
        (),
        (GraphCusp('a"b:c0', 'a"b:v0', cyclic(3)),),
        (),
    )
    assert emit_dot(graph).splitlines()[3:] == [
        '  "a\\"b:v0" [shape=ellipse, label="D3"];',
        '  "a\\\\\\"b:v0" [shape=ellipse, label="C2"];',
        '  "a:v0\\\\" [shape=ellipse, label="C3"];',
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
    vertex = {"id": "a\ud800", "group": {"kind": "dihedral", "n": 3}}
    path = write_input(tmp_path, {"field": {"char_K": 0, "p": 7}, "vertices": [vertex]})
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["in.json", "--fuzz", "3"], "an input file cannot be given with --fuzz"),
        (["--fuzz", "3", "--out", "DIR"], "--out cannot be given with --fuzz"),
        (["--fuzz", "3", "--strict"], "--strict cannot be given with --fuzz"),
        (["in.json", "--seed", "3"], "--seed needs --fuzz"),
        ([], "an input file is required unless --fuzz is given"),
    ],
    ids=["fuzz-with-input", "fuzz-with-out", "fuzz-with-strict", "seed-without-fuzz", "no-input"],
)
def test_main_rejects_arguments_its_mode_would_ignore(argv, message, tmp_path, capsys, monkeypatch):
    # The first three used to run the fuzz suite alone, and the fourth to drop --seed.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"katograph: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


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


def test_run_fuzz_counts_inputs_that_fail_to_realize(monkeypatch, capsys):
    import katograph.cli as cli

    def reject(raw, catalog):
        raise RealizeError("no gluing")

    monkeypatch.setattr(cli, "build_report", reject)
    assert run_fuzz(2, 11) == ("fuzz: 2 inputs, 2 failures (seed 11)\n", EXIT_CHECK_FAILED)
    assert capsys.readouterr().err.count(": failed to realize: no gluing\n") == 2


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

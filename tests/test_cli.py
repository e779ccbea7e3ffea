import json
from pathlib import Path

import pytest

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
from katograph.graphs import check_input, realize
from katograph.groups import dihedral

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
    ],
    ids=[
        "top-level-list", "non-integer-n", "edge-as-list", "site-hints-as-list",
        "vertices-not-a-list", "edges-null", "genus-edges-not-a-list",
    ],
)
def test_run_malformed_shapes_are_parse_errors(data, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    text, code = run(path)
    assert code == EXIT_INVALID
    assert text.startswith("parse error: ") and text.count("\n") == 1


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
    text, code = run(fixture("triangle_k5.json"), out_dir=out, dot=True, do_contract=True)
    assert code == EXIT_OK
    assert (out / "report.txt").read_text(encoding="utf-8") == text
    assert (out / "kato.dot").exists()
    assert (out / "skeleton.dot").exists()


# -- determinism -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["triangle_k5.json", "borel_p2_t2_s4.json", "schottky_genus2.json"]
)
def test_byte_identical_across_runs(name, tmp_path):
    t1, c1 = run(fixture(name), out_dir=tmp_path / "r1", dot=True, do_contract=True)
    t2, c2 = run(fixture(name), out_dir=tmp_path / "r2", dot=True, do_contract=True)
    assert t1 == t2 and c1 == c2
    for f in ("report.txt", "kato.dot", "skeleton.dot"):
        assert (tmp_path / "r1" / f).read_bytes() == (tmp_path / "r2" / f).read_bytes()


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


def test_main_fuzz_smoke(capsys):
    assert main(["--fuzz", "25", "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "25 inputs, 0 failures" in out


def test_run_fuzz_function():
    text, code = run_fuzz(40, 11)
    assert code == EXIT_OK and "0 failures" in text

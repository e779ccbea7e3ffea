"""The shared inputs of ``tests/inputs.py`` are sound: each entry that should load
loads, and each input file that ``write_input`` writes parses as its fixture does. A
broken builder then fails here, by name, and not as a changed message in some row."""

import json
from pathlib import Path

import pytest

import inputs

from katograph.catalog import Catalog, parse_extension
from katograph.cli import parse_spec

FIXTURES = Path(__file__).parent.parent / "fixtures"


# d7_entry and d3_entry are refused as never read, as tests/test_catalog.py pins.
@pytest.mark.parametrize(
    "build",
    [
        inputs.d10_entry, inputs.d10_marked_entry, inputs.d15_entry, inputs.a5_entry,
        inputs.d5_renamed_entry, inputs.d10_renamed_entry, inputs.a5_renamed_entry, inputs.c5_entry,
    ],
    ids=lambda build: build.__name__,
)
def test_each_shared_entry_loads(build):
    Catalog(parse_extension(inputs.document(build())))
    # Tests change the entries they get, so each call builds new lists and objects.
    changed = build()
    changed["cusps"][0]["id"] = "zz"
    assert build()["cusps"][0]["id"] != "zz"


@pytest.mark.parametrize(
    "spec, extension, name",
    [
        (inputs.triangle_spec(), None, "triangle_k5.json"),
        (inputs.d15_chain_spec(), inputs.document(inputs.d15_entry()), "d15_chain_k5.json"),
    ],
    ids=["triangle", "d15-chain"],
)
def test_each_written_input_parses_as_its_fixture(spec, extension, name, tmp_path):
    raw, _catalog = parse_spec(inputs.write_input(tmp_path, spec, extension))
    assert raw == parse_spec(FIXTURES / name)[0]


def test_the_d15_entry_is_the_fixture_extension():
    fixture = json.loads((FIXTURES / "extension_d15_k5.json").read_text(encoding="utf-8"))
    assert inputs.document(inputs.d15_entry()) == fixture

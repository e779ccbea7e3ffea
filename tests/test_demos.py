"""Every demo runs to the end, in process, against the current library, and README's
library examples still work."""

import json
import re
import runpy
from pathlib import Path

import pytest

from katograph.catalog import parse_extension
from katograph.cli import parse_spec_dict
from katograph.groups import FieldContext, dihedral

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos/*.py found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_examples_work():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```(\w+)\n(.*?)^```$", readme, re.M | re.S)
    (library,) = [text for lang, text in blocks if lang == "python"]
    exec(library, {})
    spec, extension = [json.loads(text) for lang, text in blocks if lang == "json"]
    raw = parse_spec_dict(spec)
    assert raw.ctx == FieldContext(0, 5, 1) and [v.id for v in raw.vertices] == ["a", "d"]
    (entry,) = parse_extension(extension)
    assert (entry.tree.group, entry.p) == (dihedral(15), 5)

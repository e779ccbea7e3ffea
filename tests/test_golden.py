"""Golden digests: the fixture reports and the acceptance corpus, byte for byte.

The digests were recorded before the engine's code was simplified; any change
to report text, DOT text or exit codes makes this test fail. A change that is
meant to alter output must say so and re-record the digests, by running

    PYTHONPATH=src python tests/test_golden.py

from the repository root and pasting what it prints.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIXTURE_DIGESTS = {
    "borel_p2_t2_s4.json": (0, "67926c9b593f09dace530e7cef58a479dfadddb361efb35ee5936a93290d48c1"),
    "corrupted_e_edge.json": (1, "7b1bf23b4ea2ff135d1de7e8b908bfc781a0ff8de79df0e2908bde5cb50653e3"),
    "d15_chain_k5.json": (0, "6fa24f5bb5b7cb7a682cc4a4f8f0fb454b7b16eaa09f21a859345cc77ce23af0"),
    "extension_d15_k5.json": (2, "f7808386d3de8a6f46abfa64006da18b6bdff6c780f6240aa1476df7a260a33c"),
    "malformed.json": (2, "372ddd35b33cabf33758fd7f6307346de24ecefde95d7551f23a91f50c82e9e9"),
    "schottky_genus2.json": (0, "0c40d5024f30a224938c535a365ffbb37f9bcb9bee2b6350a0d41fd56f695fd4"),
    "triangle_k5.json": (0, "ffed045570c655b599f35a11c0ee8acc143cb285462a9a694523c94d6f352236"),
}

CORPUS_DIGEST = "e51f081d6de27bb0cd2ca7532b4f8478e1104b57d4b8bbe9d1dcaaab9a3e204b"


def fixture_digests() -> dict[str, tuple[int, str]]:
    """``cli.run`` on each fixture, given as a path relative to the repo root."""
    from katograph.cli import run

    out = {}
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        text, code = run(path.relative_to(ROOT))
        out[path.name] = (code, hashlib.sha256(text.encode()).hexdigest())
    return out


def corpus_digest() -> str:
    """Report text and both DOT texts of the 1000-input acceptance corpus."""
    from katograph.catalog import Catalog
    from katograph.cli import build_report, emit_dot
    from katograph.fuzz import random_input

    rng = random.Random(20260808)
    catalog = Catalog()
    total = hashlib.sha256()
    for _ in range(1000):
        report = build_report(random_input(rng, max_vertices=8, max_genus=3), catalog)
        for part in (report.render(), emit_dot(report.graph), emit_dot(report.skeleton)):
            total.update(part.encode() + b"\0")
    return total.hexdigest()


def test_fixture_reports_unchanged(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert fixture_digests() == FIXTURE_DIGESTS


def test_corpus_outputs_unchanged():
    assert corpus_digest() == CORPUS_DIGEST


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.stdout.write("FIXTURE_DIGESTS = {\n")
    for name, (code, digest) in fixture_digests().items():
        sys.stdout.write(f'    "{name}": ({code}, "{digest}"),\n')
    sys.stdout.write("}\n\n")
    sys.stdout.write(f'CORPUS_DIGEST = "{corpus_digest()}"\n')

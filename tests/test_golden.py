"""Golden digests: the fixture reports and the acceptance corpus, byte for byte,
the output of ``katograph --fuzz 500 --seed 7``, the quotient skeletons of
eight large disjoint unions, which take hundreds of collapses each, and the
inputs that the fuzz generator draws from two seeds.

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
    "extension_d15_k5.json": (2, "cd308d7835d1969be01978d85128500e2d010a1f282c92dbbea8b32cf4611121"),
    "malformed.json": (2, "372ddd35b33cabf33758fd7f6307346de24ecefde95d7551f23a91f50c82e9e9"),
    "schottky_genus2.json": (0, "0c40d5024f30a224938c535a365ffbb37f9bcb9bee2b6350a0d41fd56f695fd4"),
    "triangle_k5.json": (0, "ffed045570c655b599f35a11c0ee8acc143cb285462a9a694523c94d6f352236"),
}

CORPUS_DIGEST = "e51f081d6de27bb0cd2ca7532b4f8478e1104b57d4b8bbe9d1dcaaab9a3e204b"

UNION_DIGESTS = [
    "587b5dafd1f518eac9d23f6cb10eb0e2cd7367749e91e90385e8aad872a73167",
    "ed5e669ff5b820d69da18bef7f1a5de2da100204a928e3626f68029282fd8426",
    "96e6dfb466d67218453356827f09cb315bde3d142c5712ac9d3bc811655405b3",
    "a21cd4018b66d561f904ee32317be4976228f2f2c1f8f2dcfa3532c934278fdf",
    "4b6284122fc4532ea220e30c463456209392be3c3ee3cbb9fbdcec8b02d93bc9",
    "8aa0b4e35d9cd3bcc2ca365bb8c95a2d32f1b9f4011dd011a8eceb4a40032861",
    "79a49ffd35fd215bfb157d4f99eb0e70b7d7cadcc94c93b646667558c1a92e2a",
    "793ac51e2323e8e8a239b555b31ae1c08eafcbfee7d2b385208bc64ee82f3621",
]

STREAM_DIGEST = "109e4559dadfb5d24ee533d9f4cb1763f2d5c6005b6b5ed6fc3d05dc04aad4b7"


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
        report = build_report(random_input(rng), catalog)
        for part in (report.render(), emit_dot(report.graph), emit_dot(report.skeleton)):
            total.update(part.encode() + b"\0")
    return total.hexdigest()


def stream_digest() -> str:
    """The ``repr`` of the first 2000 ``random_input`` results from seeds
    20260808 and 7: every generated input, not only the reports built from it."""
    from katograph.fuzz import random_input

    total = hashlib.sha256()
    for seed in (20260808, 7):
        rng = random.Random(seed)
        for _ in range(2000):
            total.update(repr(random_input(rng)).encode() + b"\0")
    return total.hexdigest()


def large_unions():
    """Eight disjoint unions of ``random_input`` components, of about 300 input
    vertices each, alternately in char 3 (p=3, m=2) and char 2 (p=2, m=3).

    The acceptance corpus averages under three input vertices, so it pins few
    contractions that take more than one collapse; these unions pin many.
    Each component's ids get the prefix ``c<i>.``.
    """
    from katograph.fuzz import random_input
    from katograph.graphs import GenusEdge, InputEdge, InputGraphOfGroups, InputVertex
    from katograph.groups import FieldContext

    rng = random.Random(20260808)
    unions = []
    for k in range(8):
        ctx = (FieldContext(3, 3, 2), FieldContext(2, 2, 3))[k % 2]
        vertices, edges, genus_edges = [], [], []
        i = 0
        while len(vertices) < 300:
            part = random_input(rng, ctx=ctx)
            pre = f"c{i}."
            i += 1
            vertices += [InputVertex(pre + v.id, v.group) for v in part.vertices]
            edges += [
                InputEdge(pre + e.id, (pre + e.ends[0], pre + e.ends[1]), e.group, e.derive, e.site_hints)
                for e in part.edges
            ]
            genus_edges += [
                GenusEdge(pre + g.id, (pre + g.ends[0], pre + g.ends[1]), g.group)
                for g in part.genus_edges
            ]
        unions.append(InputGraphOfGroups(ctx, tuple(vertices), tuple(edges), tuple(genus_edges)))
    return unions


def skeleton_digest(sk) -> str:
    """SHA-256 of a skeleton's vertices, edges, genus and warnings, in order."""
    lines = [f"{v.id} {v.stabilizer}" for v in sk.vertices]
    lines += [f"{e.id} {e.ends[0]} {e.ends[1]} {e.stabilizer}" for e in sk.edges]
    lines += [f"genus {sk.genus}", *sk.warnings]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def union_digests() -> list[str]:
    from katograph.analysis import contract
    from katograph.graphs import check_input, realize

    return [skeleton_digest(contract(realize(check_input(raw)))) for raw in large_unions()]


def test_fixture_reports_unchanged(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert fixture_digests() == FIXTURE_DIGESTS


def test_corpus_outputs_unchanged():
    assert corpus_digest() == CORPUS_DIGEST


def test_fuzz_stream_unchanged():
    assert stream_digest() == STREAM_DIGEST


def test_fuzz_run_unchanged(capsys):
    from katograph.cli import main

    assert main(["--fuzz", "500", "--seed", "7"]) == 0
    assert capsys.readouterr() == ("fuzz: 500 inputs, 0 failures (seed 7)\n", "")


def test_large_skeletons_unchanged():
    assert union_digests() == UNION_DIGESTS


def test_the_shared_corpus_is_the_stream_pinned_here():
    # tests/inputs.py draws this stream once for the other tests; this module draws its own.
    from inputs import golden_corpus
    from katograph.fuzz import random_input

    rng = random.Random(20260808)
    assert golden_corpus(3000) == tuple(random_input(rng) for _ in range(3000))


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.stdout.write("FIXTURE_DIGESTS = {\n")
    for name, (code, digest) in fixture_digests().items():
        sys.stdout.write(f'    "{name}": ({code}, "{digest}"),\n')
    sys.stdout.write("}\n\n")
    sys.stdout.write(f'CORPUS_DIGEST = "{corpus_digest()}"\n\n')
    sys.stdout.write(f'STREAM_DIGEST = "{stream_digest()}"\n\n')
    sys.stdout.write("UNION_DIGESTS = [\n")
    for digest in union_digests():
        sys.stdout.write(f'    "{digest}",\n')
    sys.stdout.write("]\n")

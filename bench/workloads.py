"""Seeded benchmark inputs, as the JSON text a user would hand to katograph.

Every input comes from the public generator ``katograph.fuzz.random_input``
and is serialized with ``katograph.cli.input_echo``; the timed program sees
only that text. Large inputs are disjoint unions of ``random_input``
components drawn in one field context: each component's ids get the prefix
``c<i>.`` and otherwise keep their generated order. Components are never
filtered, so a component the engine rejects counts as a failed input.

Why each workload exists, and its size at full scale. The large workloads
hold many inputs rather than one huge one: the contraction's cost depends on
where a few rare edges fall in id order, so one input's time varies by about
15% from seed to seed, and only a sum over many inputs is steady.

corpus    3000 default ``random_input`` inputs in mixed contexts (mean about
          2.8 input vertices, at most 8): the acceptance-suite and ``--fuzz``
          shape. Catalog tree rebuilding and report rendering dominate; the
          contraction and the separation plan are near zero.
forest    12 char-0 p=5 and 12 char-0 p=7 inputs of about 500 input vertices
          each, in about 150-180 disconnected components. Contraction,
          catalog lookups and realization dominate; the plan is small.
skeleton  12 char-3 (p=3, m=2) inputs of about 300 input vertices and 12
          char-2 (p=2, m=3) inputs of about 225, disconnected. Contraction is
          most of the time (ROADMAP's contraction-heavy W3).
chain     8 char-0 p=5 inputs of 85 components and 8 char-0 p=7 inputs of
          120, each joined root to root by trivial edges into one component.
          The separation plan holds k^2 distances for k clusters, so the plan
          and rendering its report dominate.

``BENCHMARK.json`` lists corpus, skeleton and chain. Forest still runs with
``--workload forest`` but is left out of that set, so that each of the
other three can run for 30 s within an hour for all runs; its main costs
(contraction, catalog lookups, realization) show on skeleton and corpus.

Within each large workload the two contexts' sizes are set so that their
inputs take about the same time, which keeps the median input away from a
gap between two clusters of latencies.

``scale`` multiplies the input count (corpus), the input vertices of each
disjoint union or the components of each chain; the traced run uses 0.5 to
read each stage's size exponent.
"""

from __future__ import annotations

import json
import random

from katograph import cli
from katograph.fuzz import random_input
from katograph.graphs import GenusEdge, InputEdge, InputGraphOfGroups, InputVertex
from katograph.groups import TRIVIAL, FieldContext

CORPUS_INPUTS = 3000

# (context, number of inputs, size, chained) of the large inputs: size is the
# input vertices of a disjoint union, or the components of a chain.
FOREST = ((FieldContext(0, 5, 1), 12, 500, False), (FieldContext(0, 7, 1), 12, 500, False))
SKELETON = ((FieldContext(3, 3, 2), 12, 300, False), (FieldContext(2, 2, 3), 12, 225, False))
CHAIN = ((FieldContext(0, 5, 1), 8, 85, True), (FieldContext(0, 7, 1), 8, 120, True))
SPECS = {"forest": FOREST, "skeleton": SKELETON, "chain": CHAIN}

NAMES = ("corpus",) + tuple(SPECS)

# The latency_tail_ms percentile of each workload, fixed so that runs compare
# like with like: a 30 s run at the speed of the commit that defined the
# benchmark has at least ten samples beyond it.
TAIL_PERCENTILE = {"corpus": 99, "forest": 90, "skeleton": 90, "chain": 90}


def generate(name: str, seed: int, scale: float = 1.0) -> list[str]:
    """The workload's inputs as JSON texts; the same seed gives the same texts."""
    rng = random.Random(f"katograph-bench:{name}:{seed}")
    if name == "corpus":
        graphs = [random_input(rng) for _ in range(round(CORPUS_INPUTS * scale))]
    elif name in SPECS:
        graphs = [
            _union(rng, ctx, round(size * scale), chained)
            for ctx, count, size, chained in SPECS[name] for _ in range(count)
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return [json.dumps(cli.input_echo(g)) for g in graphs]


def _union(rng, ctx, size, chained):
    """Disjoint union of random components in ``ctx``; chained, if asked.

    Without ``chained``, draws components until the union holds ``size``
    input vertices. With it, draws ``size`` components and joins the first
    vertex of each to the next component's first vertex by a trivial edge,
    which makes the union connected.
    """
    vertices, edges, genus_edges, roots = [], [], [], []
    i = 0
    while (i < size) if chained else (len(vertices) < size):
        part = random_input(rng, ctx=ctx)
        pre = f"c{i}."
        roots.append(pre + part.vertices[0].id)
        vertices += [InputVertex(pre + v.id, v.group) for v in part.vertices]
        edges += [
            InputEdge(pre + e.id, (pre + e.ends[0], pre + e.ends[1]), e.group, e.derive, e.site_hints)
            for e in part.edges
        ]
        genus_edges += [
            GenusEdge(pre + g.id, (pre + g.ends[0], pre + g.ends[1]), g.group)
            for g in part.genus_edges
        ]
        i += 1
    if chained:
        edges += [InputEdge(f"j{k}", (a, b), TRIVIAL) for k, (a, b) in enumerate(zip(roots, roots[1:]))]
    return InputGraphOfGroups(ctx, tuple(vertices), tuple(edges), tuple(genus_edges))

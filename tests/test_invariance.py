"""Realization is a function of the graph of groups, not of how it is named.

Renaming or reordering the vertices, edges and genus edges of an input must
give the same Kato graph up to names, and the validator must accept exactly
the inputs that realize. The quotient skeleton is left out: ``contract``
collapses in edge-id order, so its shape may change with the names.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

from katograph.analysis import census, structural_check
from katograph.fuzz import random_input
from katograph.graphs import (
    InputGraphOfGroups,
    RealizeError,
    ValidationError,
    check_input,
    genus,
    realize,
    validate_input,
)


def _relabeled(raw: InputGraphOfGroups, permute) -> InputGraphOfGroups:
    """Rename each id family of ``raw`` by ``permute`` (sorted ids -> new order)
    and reorder each tuple by it too."""

    def renaming(items):
        ids = sorted(x.id for x in items)
        return dict(zip(ids, permute(ids)))

    vmap, emap, gmap = renaming(raw.vertices), renaming(raw.edges), renaming(raw.genus_edges)

    def ends(x):
        return tuple(vmap[v] for v in x.ends)

    return InputGraphOfGroups(
        raw.ctx,
        tuple(permute([replace(v, id=vmap[v.id]) for v in raw.vertices])),
        tuple(permute([replace(e, id=emap[e.id], ends=ends(e)) for e in raw.edges])),
        tuple(permute([replace(g, id=gmap[g.id], ends=ends(g)) for g in raw.genus_edges])),
    )


def _signature(raw: InputGraphOfGroups):
    """What must not depend on names; None when the input does not realize."""
    try:
        g = realize(check_input(raw))
    except (ValidationError, RealizeError):
        return None
    return (
        Counter(c.stabilizer for c in g.cusps),
        census(g),
        genus(g),
        len(g.vertices),
        len(g.finite_edges),
        structural_check(g).ok,
    )


def test_realization_does_not_depend_on_ids():
    rng = random.Random(20260808)
    for i in range(3000):
        raw = random_input(rng)
        expected = _signature(raw)
        assert expected is not None, i
        shuffles = [random.Random(f"{i}/{k}") for k in range(2)]
        copies = [_relabeled(raw, lambda xs: xs[::-1])] + [
            _relabeled(raw, lambda xs, r=r: r.sample(xs, len(xs))) for r in shuffles
        ]
        for copy in copies:
            got = _signature(copy)
            assert (validate_input(copy) == []) == (got is not None), (i, copy)
            assert got == expected, (i, copy)

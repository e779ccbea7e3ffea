"""Presentation moves: changes of a graph of groups that keep its fundamental
group, so its Kato graph must keep everything that depends only on the group.

Both moves are elementary expansions (Serre, *Trees*, I.4; Forester,
*Geom. Topol.* 6, 2002): the new vertex carries the group of its new edge.
"""

from __future__ import annotations

from katograph.graphs import InputEdge, InputGraphOfGroups, InputVertex
from katograph.groups import GroupSymbol


def subdivide(raw: InputGraphOfGroups, index: int, reverse: bool) -> InputGraphOfGroups:
    """``raw`` with edge ``index`` split at a new vertex ``s`` carrying its group;
    the edges are renamed by position, in reverse when ``reverse``."""
    e = raw.edges[index]
    (u, v), (hu, hv) = e.ends, e.site_hints
    halves = (
        InputEdge("", (u, "s"), e.group, site_hints=(hu, None)),
        InputEdge("", ("s", v), e.group, site_hints=(None, hv)),
    )
    edges = raw.edges[:index] + halves + raw.edges[index + 1:]
    ids = [f"e{i:02d}" for i in range(len(edges))]
    if reverse:
        ids.reverse()
    return raw._replace(
        vertices=raw.vertices + (InputVertex("s", e.group),),
        edges=tuple(edge._replace(id=eid) for edge, eid in zip(edges, ids)),
    )


def leaf_expand(raw: InputGraphOfGroups, v: str, group: GroupSymbol, name: str):
    """``raw`` with a new vertex ``w`` joined to ``v`` by an edge ``name``, both
    carrying ``group``, which should be a cusp stabilizer of T*(G_v)."""
    return raw._replace(
        vertices=raw.vertices + (InputVertex("w", group),),
        edges=raw.edges + (InputEdge(name, (v, "w"), group),),
    )

"""Walkthrough: the residue-characteristic-5 triangle group.

An icosahedral vertex glued to a dihedral vertex D_{10m} along a D5 edge.
This is the smallest printed example of a gluing whose edge group is not
cyclic: it only exists because the small-residue trees carry marked points
and internal edges.
"""

from katograph import (
    FieldContext,
    ICOSAHEDRAL,
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    branch_points,
    census,
    check_input,
    contract,
    count_cusps_direct,
    cusp_count_char0,
    cusp_count_general,
    dihedral,
    realize,
    separation_plan,
)
from katograph.catalog import DEFAULT_CATALOG
from katograph.cli import emit_dot

m = 2
ctx = FieldContext(char_K=0, p=5, m=1)

print(f"# elementary trees at char 0, residue characteristic 5 (m = {m})")
for group in (ICOSAHEDRAL, dihedral(5), dihedral(10 * m)):
    tree = DEFAULT_CATALOG.elementary_tree(group, ctx)
    cusps = ", ".join(f"{c.stabilizer}@{c.base_vertex}" for c in tree.cusps)
    print(f"  T*({group}): vertices {[str(v.stabilizer) for v in tree.vertices]}, cusps [{cusps}]")

raw = InputGraphOfGroups(
    ctx,
    (InputVertex("a", ICOSAHEDRAL), InputVertex("d", dihedral(10 * m))),
    (InputEdge("e0", ("a", "d"), dihedral(5)),),
)
checked = check_input(raw)
graph = realize(checked)

print("\n# realized Kato graph")
for v in graph.vertices:
    print(f"  vertex {v.id}: {v.stabilizer}")
for e in graph.finite_edges:
    print(f"  edge {e.id}: {e.ends[0]} -- {e.ends[1]}  [{e.stabilizer}]")
for c in graph.cusps:
    print(f"  cusp {c.id}: at {c.base}  [{c.stabilizer}]")

print("\n# three ways to count the branch points")
cs = census(graph)
print(f"  direct count:        {count_cusps_direct(graph)}")
print(f"  boundary-sum formula: {cusp_count_general(checked)}")
print(f"  3(D-d)+2(C-c):       {cusp_count_char0(cs)}   with (C,c,D,d) = "
      f"({cs.C},{cs.c},{cs.D},{cs.d})")

print("\n# branch points and their decomposition groups")
for bp in branch_points(graph):
    print(f"  {bp.id}: {bp.stabilizer} anchored at {bp.base}")

print("\n# contraction to the quotient skeleton")
sk = contract(graph)
print(f"  vertices: {[f'{v.id}:{v.stabilizer}' for v in sk.vertices]}")
print(f"  edges:    {[f'{e.id}:{e.stabilizer}' for e in sk.edges]}")

print("\n# separation plan (clusters of branch points per disc)")
plan = separation_plan(graph)
for i, cl in enumerate(plan.clusters):
    print(f"  cluster {i} at {cl.anchor}: {list(cl.members)} (size {cl.size})")
for i, j, d in plan.distances:
    print(f"  distance between clusters {i} and {j}: {d} edge(s)")

print("\n# DOT output")
print(emit_dot(graph))

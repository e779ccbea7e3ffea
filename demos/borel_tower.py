"""Walkthrough: a two-cusp Kato tree in characteristic p.

PGL2(F_{p^t}) glued to a bigger Borel group B(s, n) along their intersection
B(t, n), n = p^t - 1. The projective linear tree folds at the marked point
of its Borel cusp; the Borel tree maps in isomorphically. The result has
exactly two cusps whatever the tower height s.
"""

from katograph import (
    FieldContext,
    InputEdge,
    InputGraphOfGroups,
    InputVertex,
    borel,
    branch_points,
    check_input,
    count_cusps_direct,
    cusp_count_general,
    derive_edge_group,
    is_ordinary,
    proj_linear,
    realize,
)
from katograph.catalog import DEFAULT_CATALOG

p, t, s = 2, 2, 4
n = p ** t - 1
ctx = FieldContext(char_K=p, p=p, m=s)

pgl = proj_linear("PGL", t)
big = borel(s, n)
print(f"# vertex groups: {pgl} (order {p**t * (p**t-1) * (p**t+1)}) and {big}")
print(f"# derived edge group: {derive_edge_group(pgl, big, ctx)}")

tree = DEFAULT_CATALOG.elementary_tree(pgl, ctx)
for c in tree.cusps:
    mark = f", marked point {c.marked_point}" if c.marked_point else ""
    print(f"  T*({pgl}) cusp {c.id}: {c.stabilizer}{mark}")

raw = InputGraphOfGroups(
    ctx,
    (InputVertex("a", pgl), InputVertex("b", big)),
    (InputEdge("e0", ("a", "b"), None, derive=True),),
)
checked = check_input(raw)
graph = realize(checked)

print("\n# realized graph")
for v in graph.vertices:
    print(f"  vertex {v.id}: {v.stabilizer}")
for e in graph.finite_edges:
    print(f"  edge {e.id}: {e.ends[0]} -- {e.ends[1]}  [{e.stabilizer}]")
for c in graph.cusps:
    print(f"  cusp {c.id}: at {c.base}  [{c.stabilizer}]")

print("\n# counts and ordinarity")
print(f"  direct:  {count_cusps_direct(graph)}")
print(f"  formula: {cusp_count_general(checked)}")
print(f"  decomposition groups: {[str(b.stabilizer) for b in branch_points(graph)]}")
print(f"  ordinary (all Borel type): {is_ordinary(graph)}")

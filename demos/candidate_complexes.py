"""
Candidate complexes, incidence operators, Laplacians
====================================================

Everything downstream works on the full candidate complex: all C(n0,2)
edges and C(n0,3) triangles over n0 nodes in lexicographic order, with
oriented incidence matrices relating the levels.
"""

import numpy as np

from sctopo import (
    Selection,
    build_candidate_complex,
    laplacian_node,
    laplacian_upper_edge,
    validate_inclusion,
)

cx = build_candidate_complex(5)
print(f"n0=5: {cx.n_edges} candidate edges, {cx.n_triangles} candidate triangles")
print("first edges:     ", cx.edges[:4])
print("first triangles: ", cx.triangles[:4])

# edge and triangle ids are combinatorial ranks, no lookup tables needed
print("edge_id(1, 3)    =", cx.edge_id(1, 3), "->", cx.edges[cx.edge_id(1, 3)])
print("triangle_id(0,2,4) =", cx.triangle_id(0, 2, 4))

# b1 columns pair off each edge's endpoints; b2 columns carry the
# orientation signs of each triangle's three faces
print("b1 column of edge (1, 3):", cx.b1[:, cx.edge_id(1, 3)])
print("b2 column of triangle (0, 1, 2):", cx.b2[:, cx.triangle_id(0, 1, 2)])

# the defining identity of a complex built closed under faces
print("b1 @ b2 is all zero:", not np.any(cx.b1 @ cx.b2))

# Laplacians are assembled from selected sub-complexes
s1 = np.zeros(cx.n_edges, dtype=np.int8)
for i, j in ((0, 1), (1, 2), (0, 2), (2, 3)):
    s1[cx.edge_id(i, j)] = 1
s2 = np.zeros(cx.n_triangles, dtype=np.int8)
s2[cx.triangle_id(0, 1, 2)] = 1

L0 = laplacian_node(cx, s1)
print("node Laplacian degrees:", np.diag(L0))
L1up = laplacian_upper_edge(cx, s2)
print("upper edge Laplacian rank:", np.linalg.matrix_rank(L1up))
B1s = cx.b1 * s1  # the lower term acts on the selected edges only
L1 = B1s.T @ B1s + L1up
print("Hodge edge Laplacian is symmetric:", np.allclose(L1, L1.T))

# a selection is valid when every chosen triangle brings its three edges
sel = Selection(s1=s1, s2=s2)
print("inclusion violations:", validate_inclusion(cx, sel))

s1_broken = s1.copy()
s1_broken[cx.edge_id(0, 2)] = 0
missing = validate_inclusion(cx, Selection(s1=s1_broken, s2=s2))
t, e = missing[0]
print(f"after dropping an edge: triangle {cx.triangles[t]} misses edge {cx.edges[e]}")

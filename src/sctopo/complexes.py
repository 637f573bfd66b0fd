"""Candidate simplicial complexes over a fixed node set.

A candidate complex enumerates every possible edge and triangle on ``n0``
nodes, in lexicographic order, and the edge indices of each triangle's
faces.  The oriented incidence (boundary) matrices ``b1`` (nodes x edges)
and ``b2`` (edges x triangles) and the unoriented ``b2_plus = |b2|`` are
derived from those indices on first access.  Binary selection vectors over
the candidate index spaces then pick out the active structure; the routines
here build the selection-dependent Laplacians and check the face-inclusion
property.

Index conventions (used by every module in this package):

* edges are pairs ``(i, j)`` with ``i < j``, sorted lexicographically;
* triangles are triples ``(i, j, k)`` with ``i < j < k``, lexicographic;
* edges are oriented low -> high vertex; the boundary of triangle
  ``(i, j, k)`` carries signs ``(+1, -1, +1)`` on its faces
  ``(i, j), (i, k), (j, k)`` listed in lexicographic face order.

With this convention ``b1 @ b2 == 0`` holds exactly in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np

# Boundary signs of a triangle on its faces (i,j), (i,k), (j,k).
TRIANGLE_FACE_SIGNS = np.array([1, -1, 1], dtype=np.int64)


def enumerate_simplices(n0, k):
    """Enumerate all candidate k-simplices over ``n0`` nodes.

    Returns the sorted (k+1)-subsets of ``{0..n0-1}`` as a list of tuples in
    lexicographic order.  Only ``k=1`` (edges) and ``k=2`` (triangles) are
    supported.
    """
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    if n0 < k + 1:
        raise ValueError(f"need at least {k + 1} nodes for {k}-simplices, got n0={n0}")
    return list(combinations(range(n0), k + 1))


def _edge_rank(n0, i, j):
    """Lexicographic rank of edge ``(i, j)``, ``i < j``; elementwise on arrays."""
    # C(n0, 2) - C(n0 - i, 2) + (j - i - 1), expanded
    return n0 * i - i * (i + 1) // 2 + (j - i - 1)


def _triangle_rank(n0, i, j, k):
    """Lexicographic rank of triangle ``(i, j, k)``, ``i < j < k``; elementwise."""
    def c2(x):
        return x * (x - 1) // 2

    def c3(x):
        return x * (x - 1) * (x - 2) // 6

    return c3(n0) - c3(n0 - i) + c2(n0 - i - 1) - c2(n0 - j) + (k - j - 1)


def _check_ranks(ranks, size, name):
    r = np.asarray(ranks, dtype=np.int64)
    if r.size and (r.min() < 0 or r.max() >= size):
        raise ValueError(f"{name} indices must lie in [0, {size})")
    return r


def _edge_vertices(n0, ranks):
    """Inverse of ``_edge_rank``: the vertex arrays ``(i, j)`` of edge ranks."""
    e = _check_ranks(ranks, n0 * (n0 - 1) // 2, "edge")
    first = np.arange(n0 - 1)
    starts = _edge_rank(n0, first, first + 1)  # rank of each (i, i + 1)
    i = starts.searchsorted(e, side="right") - 1
    return i, e - starts[i] + i + 1


def _triangle_vertices(n0, ranks):
    """Inverse of ``_triangle_rank``: the vertex arrays ``(i, j, k)``."""
    t = _check_ranks(ranks, comb(n0, 3), "triangle")
    pi, pj = np.triu_indices(n0 - 1, 1)  # prefixes (i, j), lexicographic
    starts = _triangle_rank(n0, pi, pj, pj + 1)  # rank of each (i, j, j + 1)
    p = starts.searchsorted(t, side="right") - 1
    return pi[p], pj[p], t - starts[p] + pj[p] + 1


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class CandidateComplex:
    """The complete candidate complex on ``n0`` nodes.

    Only the index lists are stored; the dense incidence matrices are
    derived from them the first time they are read and then kept.

    Attributes
    ----------
    n0 : int
        Number of nodes.
    edges, triangles : tuple of tuples
        Candidate simplices in lexicographic order.
    triangle_edges : ndarray, shape (n_triangles, 3)
        Edge indices of each triangle's faces, in lexicographic face order.
        This is the sparse column-list view of ``b2`` that the solver and
        the learners consume.
    """

    n0: int
    edges: tuple
    triangles: tuple
    triangle_edges: np.ndarray

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @cached_property
    def b1(self):
        """Oriented node-to-edge incidence; edge ``(i, j)`` is -1 at ``i``, +1 at ``j``."""
        b1 = np.zeros((self.n0, self.n_edges), dtype=np.int64)
        b1[np.array(self.edges).T, np.arange(self.n_edges)] = [[-1], [1]]
        return _read_only(b1)

    @cached_property
    def b2(self):
        """Oriented edge-to-triangle incidence with the sign convention above."""
        b2 = np.zeros((self.n_edges, self.n_triangles), dtype=np.int64)
        b2[self.triangle_edges, np.arange(self.n_triangles)[:, None]] = TRIANGLE_FACE_SIGNS
        return _read_only(b2)

    @cached_property
    def b2_plus(self):
        """Entrywise absolute value of ``b2``."""
        return _read_only(np.abs(self.b2))

    def edge_id(self, i, j):
        """Index of edge ``(i, j)`` (order-insensitive) in the candidate list."""
        i, j = (i, j) if i < j else (j, i)
        if not (0 <= i < j < self.n0):
            raise ValueError(f"({i}, {j}) is not a valid edge on {self.n0} nodes")
        return _edge_rank(self.n0, i, j)

    def triangle_id(self, i, j, k):
        """Index of triangle ``{i, j, k}`` in the candidate list."""
        i, j, k = sorted((i, j, k))
        if not (0 <= i < j < k < self.n0):
            raise ValueError(f"({i}, {j}, {k}) is not a valid triangle on {self.n0} nodes")
        return _triangle_rank(self.n0, i, j, k)


def build_candidate_complex(n0):
    """Build the full candidate complex on ``n0 >= 3`` nodes.

    Only the simplex lists and ``triangle_edges`` are computed here; the
    dense incidence matrices are derived on first access.
    """
    if n0 < 3:
        raise ValueError(f"need n0 >= 3, got {n0}")
    edges = enumerate_simplices(n0, 1)
    triangles = enumerate_simplices(n0, 2)
    i, j, k = np.fromiter(chain.from_iterable(triangles), dtype=np.int64,
                          count=3 * len(triangles)).reshape(-1, 3).T
    triangle_edges = np.column_stack(
        (_edge_rank(n0, i, j), _edge_rank(n0, i, k), _edge_rank(n0, j, k)))
    return CandidateComplex(
        n0=n0,
        edges=tuple(edges),
        triangles=tuple(triangles),
        triangle_edges=_read_only(triangle_edges),
    )


@dataclass(frozen=True, eq=False)
class Selection:
    """Binary activation vectors over candidate edges (``s1``) and triangles (``s2``)."""

    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        s1 = _as_binary(self.s1, "s1")
        s2 = _as_binary(self.s2, "s2")
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s2", s2)

    @classmethod
    def from_indices(cls, n_edges, n_triangles, edge_indices=(), triangle_indices=()):
        return cls(_indicator(n_edges, edge_indices, "edge"),
                   _indicator(n_triangles, triangle_indices, "triangle"))

    @property
    def edge_indices(self):
        return np.flatnonzero(self.s1)

    @property
    def triangle_indices(self):
        return np.flatnonzero(self.s2)

    @property
    def n_selected_edges(self):
        return int(self.s1.sum())

    @property
    def n_selected_triangles(self):
        return int(self.s2.sum())

    def same_as(self, other):
        return np.array_equal(self.s1, other.s1) and np.array_equal(self.s2, other.s2)


def _indicator(n, indices, name):
    idx = np.asarray(list(indices))
    if idx.size and (idx.ndim != 1 or idx.dtype.kind not in "iu"
                     or idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"{name} indices must be integers in [0, {n})")
    v = np.zeros(n, dtype=np.int8)
    v[idx.astype(np.int64)] = 1
    return v


def _as_binary(v, name):
    a = np.asarray(v)
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not ((a == 0) | (a == 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    a = a.astype(np.int8)
    a.flags.writeable = False
    return a


def validate_inclusion(cx, sel):
    """List every face-inclusion violation of ``sel`` on ``cx``.

    Returns the (triangle index, edge index) pairs where the triangle is
    selected but the face edge is not.  An empty list means ``sel`` is a
    valid simplicial complex.
    """
    s1, s2 = np.asarray(sel.s1), np.asarray(sel.s2)
    if s1.shape != (cx.n_edges,) or s2.shape != (cx.n_triangles,):
        raise ValueError(
            f"selection shape ({s1.shape[0]}, {s2.shape[0]}) does not match "
            f"complex ({cx.n_edges}, {cx.n_triangles})"
        )
    faces = cx.triangle_edges
    ts, fs = np.nonzero((s2 != 0)[:, None] & (s1[faces] == 0))
    return [(int(t), int(faces[t, f])) for t, f in zip(ts, fs)]


def laplacian_node(cx, s1):
    """Graph Laplacian of the selected edge set: ``b1 @ diag(s1) @ b1.T``."""
    s1 = _check_len(s1, cx.n_edges, "s1")
    e = np.flatnonzero(s1)
    w = s1[e].astype(float)
    i, j = _edge_vertices(cx.n0, e)
    L = np.zeros((cx.n0, cx.n0))
    L[i, j] = L[j, i] = -w
    L[np.diag_indices(cx.n0)] = np.bincount(i, w, cx.n0) + np.bincount(j, w, cx.n0)
    return L


def laplacian_upper_edge(cx, s2):
    """Upper edge Laplacian of the selected triangles: ``b2 @ diag(s2) @ b2.T``."""
    s2 = _check_len(s2, cx.n_triangles, "s2")
    t = np.flatnonzero(s2)
    faces = cx.triangle_edges[t]
    signs = np.outer(TRIANGLE_FACE_SIGNS, TRIANGLE_FACE_SIGNS)
    L = np.zeros((cx.n_edges, cx.n_edges))
    np.add.at(L, (faces[:, :, None], faces[:, None, :]),
              s2[t].astype(float)[:, None, None] * signs)
    return L


def hodge_laplacian_edge(cx, s1, s2):
    """Full edge-space Hodge Laplacian of a selection.

    The lower term restricts ``b1`` to the selected edge columns but keeps
    the result indexed over the full candidate edge space; the upper term is
    ``b2 @ diag(s2) @ b2.T``.
    """
    s1 = _check_len(s1, cx.n_edges, "s1")
    b1_sel = cx.b1 * s1
    lower = b1_sel.T @ b1_sel.astype(float)
    return lower + laplacian_upper_edge(cx, s2)


def similarity_laplacian(cx, s2):
    """Similarity Laplacian over candidate edges.

    Sum over selected triangles of the complete-graph Laplacian on the
    triangle's three face edges (diagonal 2, off-diagonal -1), embedded in
    the full candidate edge space.
    """
    s2 = _check_len(s2, cx.n_triangles, "s2")
    n1 = cx.n_edges
    L = np.zeros((n1, n1))
    for t in np.flatnonzero(s2):
        a, b, c = cx.triangle_edges[t]
        for e in (a, b, c):
            L[e, e] += 2.0
        for e, f in ((a, b), (a, c), (b, c)):
            L[e, f] -= 1.0
            L[f, e] -= 1.0
    return L


def _check_len(v, n, name):
    a = np.asarray(v)
    if a.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {a.shape}")
    return a

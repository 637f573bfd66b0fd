"""Candidate simplicial complexes over a fixed node set.

The one module that derives complex structure.  The candidate complex on
``n0`` nodes holds every possible edge and triangle in lexicographic
order.  The closed-form ranks below and their inverses are the one map
between vertices and indices.  A complex stores only the edge indices of
each triangle's faces, all that the solver, learners and costs read.  The
vertex tuples, and the dense views that no module here reads (oriented
incidence ``b1``, nodes x edges, ``b2``, edges x triangles, and
``b2_plus = |b2|``), are derived on first access.  Binary selection
vectors pick out the active structure; the routines here build its
Laplacians, list the triangles an edge set supports and check inclusion.

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
from functools import cached_property, lru_cache
from math import comb, inf, isfinite, isqrt
from numbers import Real

import numpy as np

# Boundary signs of a triangle on its faces (i,j), (i,k), (j,k).
TRIANGLE_FACE_SIGNS = np.array([1, -1, 1], dtype=np.int64)


def signed_face_sum(triangle_edges, values):
    """``b2.T @ values``: per triangle, the rows of ``values`` at its faces
    summed with the signs of ``TRIANGLE_FACE_SIGNS``, written out, since
    multiplying by each sign costs more than the sum itself."""
    return (values[triangle_edges[:, 0]] - values[triangle_edges[:, 1]]
            + values[triangle_edges[:, 2]])


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


def candidate_n0(n_edges, n_triangles):
    """The ``n0 >= 3`` of ``C(n0, 2)`` edges and ``C(n0, 3)`` triangles, else ``ValueError``."""
    n0 = 0
    if type(n_edges) is int and n_edges >= 0:
        n0 = (1 + isqrt(1 + 8 * n_edges)) // 2
    if n0 < 3 or comb(n0, 2) != n_edges:
        raise ValueError(f"n_edges must be n0 (n0 - 1) / 2 for some n0 >= 3; "
                         f"got {n_edges!r}")
    if type(n_triangles) is not int or n_triangles != comb(n0, 3):
        raise ValueError(f"n_triangles must be C(n0, 3) = {comb(n0, 3)} for "
                         f"n0 = {n0}; got {n_triangles!r}")
    return n0


@dataclass(frozen=True, eq=False)
class CandidateComplex:
    """The complete candidate complex on ``n0`` nodes.

    Only ``triangle_edges`` is stored; the vertex tuples and the dense
    incidence matrices are derived from the ranks when first read.  No
    module in the package reads ``b1``, ``b2`` or ``b2_plus``.

    Attributes
    ----------
    n0 : int
        Number of nodes.
    triangle_edges : ndarray, shape (n_triangles, 3)
        Edge indices of each triangle's faces, in lexicographic face order.
        This is the sparse column-list view of ``b2`` that the solver and
        the learners consume.
    """

    n0: int
    triangle_edges: np.ndarray

    @property
    def n_edges(self):
        return self.n0 * (self.n0 - 1) // 2

    @property
    def n_triangles(self):
        return len(self.triangle_edges)

    @cached_property
    def edges(self):
        """Candidate edges ``(i, j)`` in lexicographic order, as int tuples."""
        i, j = _edge_vertices(self.n0, np.arange(self.n_edges))
        return tuple(zip(i.tolist(), j.tolist()))

    @cached_property
    def triangles(self):
        """Candidate triangles ``(i, j, k)`` in lexicographic order."""
        i, j, k = _triangle_vertices(self.n0, np.arange(self.n_triangles))
        return tuple(zip(i.tolist(), j.tolist(), k.tolist()))

    @cached_property
    def b1(self):
        """Oriented node-to-edge incidence; edge ``(i, j)`` is -1 at ``i``, +1 at ``j``."""
        b1 = np.zeros((self.n0, self.n_edges), dtype=np.int64)
        ends = np.stack(_edge_vertices(self.n0, np.arange(self.n_edges)))
        b1[ends, np.arange(self.n_edges)] = [[-1], [1]]
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


# Only the read-only face array is cached, never a complex: a complex
# keeps its dense incidence once read (970 MB at 60 nodes).  One entry is
# 3 * C(n0, 3) indices, 0.8 MB at 60 nodes.
@lru_cache(maxsize=8)
def _triangle_edges(n0):
    i, j, k = _triangle_vertices(n0, np.arange(comb(n0, 3)))
    return _read_only(np.column_stack(
        (_edge_rank(n0, i, j), _edge_rank(n0, i, k), _edge_rank(n0, j, k))))


def build_candidate_complex(n0):
    """Build the full candidate complex on ``n0 >= 3`` nodes.

    Only ``triangle_edges`` is computed here, from the closed-form ranks,
    and it is shared by every complex of the same ``n0``; everything else
    is derived on first access, per complex.
    """
    if n0 < 3:
        raise ValueError(f"need n0 >= 3, got {n0}")
    return CandidateComplex(n0=n0, triangle_edges=_triangle_edges(n0))


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


def check_count(value, what, stop=inf):
    """``value`` as an int; ``ValueError`` unless an integer (not a bool) in [0, stop)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not 0 <= value < stop):
        below = "" if stop == inf else f" below {stop}"
        raise ValueError(f"{what} must be a nonnegative integer{below}; "
                         f"got {value!r}")
    return int(value)


def check_real(value, what, high=inf, positive=False):
    """``value`` as a float; ``ValueError`` unless a finite real number (not
    a bool) in [0, high], or in (0, high] if ``positive``."""
    ok = isinstance(value, Real) and not isinstance(value, bool)
    if ok:
        x = float(value)
        ok = isfinite(x) and (0 < x if positive else 0 <= x) and x <= high
    if not ok:
        span = f"{'(' if positive else '['}0, {high}{')' if high == inf else ']'}"
        raise ValueError(f"{what} must be a finite number in {span}; got {value!r}")
    return x


def cheapest(count, values, exclude=None):
    """First ``count`` indices by ``(value, index)``, skipping mask ``exclude``."""
    order = np.lexsort((np.arange(values.size), values))
    if exclude is not None:
        order = order[~exclude[order]]
    return order[:count]


def _indicator(n, indices, name):
    idx = np.asarray(list(indices))
    if idx.size and (idx.ndim != 1 or idx.dtype.kind not in "iu"
                     or idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"{name} indices must be integers in [0, {n})")
    if np.unique(idx).size != idx.size:
        raise ValueError(f"{name} indices must not repeat")
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


def feasible_triangles(cx, s1):
    """Indices of triangles whose three faces are all selected in s1."""
    s1 = np.asarray(s1)
    if s1.size != cx.n_edges:
        raise ValueError("s1 length does not match the candidate complex")
    return np.flatnonzero(np.all(s1[cx.triangle_edges] == 1, axis=1))


def laplacian_node(cx, s1):
    """Graph Laplacian of the selected edge set: ``b1 @ diag(s1) @ b1.T``."""
    ends = np.column_stack(_edge_vertices(cx.n0, np.arange(cx.n_edges)))
    return _block_sum(cx.n0, ends, s1, "s1", np.array([[1.0, -1.0], [-1.0, 1.0]]))


def laplacian_upper_edge(cx, s2):
    """Upper edge Laplacian of the selected triangles: ``b2 @ diag(s2) @ b2.T``."""
    return _block_sum(cx.n_edges, cx.triangle_edges, s2, "s2",
                      np.outer(TRIANGLE_FACE_SIGNS, TRIANGLE_FACE_SIGNS))


def similarity_laplacian(cx, s2):
    """Similarity Laplacian over candidate edges.

    Sum over triangles, weighted by ``s2`` as in :func:`laplacian_upper_edge`,
    of the complete-graph Laplacian on the triangle's three face edges
    (diagonal 2, off-diagonal -1), embedded in the full candidate edge space.
    """
    return _block_sum(cx.n_edges, cx.triangle_edges, s2, "s2", 3.0 * np.eye(3) - 1.0)


def _block_sum(size, faces, weights, name, block):
    """The one Laplacian builder: ``weights[s] * block`` summed on the rows
    and columns ``faces[s]`` of each simplex ``s`` (its faces, in order).

    One ``np.bincount`` over the flat positions ``row * size + col`` adds
    the blocks' entries in the order ``np.add.at`` would, simplex by
    simplex, so the sums keep their bits; it returns int64 when no simplex
    is selected, hence the cast.
    """
    weights = _check_len(weights, len(faces), name)
    s = np.flatnonzero(weights)
    f = faces[s]
    flat = f[:, :, None] * size + f[:, None, :]
    entries = weights[s].astype(float)[:, None, None] * block
    L = np.bincount(flat.ravel(), entries.ravel(), size * size)
    return L.astype(float, copy=False).reshape(size, size)


def _check_len(v, n, name):
    a = np.asarray(v)
    if a.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {a.shape}")
    return a

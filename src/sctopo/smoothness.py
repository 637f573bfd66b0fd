"""Linear per-simplex cost vectors derived from signal smoothness.

Each candidate edge gets a cost ``h1[e]`` from node signals, and each
candidate triangle a cost ``h2[t]`` from edge signals, such that the total
smoothness of a binary selection is the linear form ``h1 @ s1 + h2 @ s2``.
Two triangle costs are provided: a curl measure (orientation-consistent
signed sum around the triangle) and a similarity measure (pairwise squared
differences between the triangle's face-edge signals).

Costs are computed as explicit per-simplex sums, which is O(count * F)
instead of forming the full edge-space Laplacians; the equivalence with the
quadratic forms is asserted by the test suite via :func:`quadratic_form`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import _edge_vertices, signed_face_sum

# Rounding residue below this magnitude is clamped to zero so that cost
# vectors stay nonnegative for the solver and the enumeration oracle.
_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class CostVectors:
    """Edge costs ``h1``, triangle costs ``h2`` and the kind of ``h2``."""

    h1: np.ndarray
    h2: np.ndarray
    h2_kind: str  # "curl" or "similarity"

    def __post_init__(self):
        if self.h2_kind not in ("curl", "similarity"):
            raise ValueError(f"unknown h2_kind {self.h2_kind!r}")


def compute_costs(cx, x0, x1bar, h2_kind):
    """Bundle :func:`h1_node_smoothness` with the requested ``h2`` variant."""
    h1 = h1_node_smoothness(cx, x0)
    if h2_kind == "curl":
        h2 = h2_curl(cx, x1bar)
    elif h2_kind == "similarity":
        h2 = h2_similarity(cx, x1bar)
    else:
        raise ValueError(f"unknown h2_kind {h2_kind!r}")
    return CostVectors(h1=h1, h2=h2, h2_kind=h2_kind)


def h1_node_smoothness(cx, x0):
    """Edge costs from node signals: squared endpoint differences.

    ``h1[e] = sum_f (x0[j, f] - x0[i, f])**2`` for edge ``e = (i, j)``,
    the :func:`face_similarity_costs` of each edge's two endpoints.
    """
    x0 = _check_rows(x0, cx.n0, "x0")
    ends = np.column_stack(_edge_vertices(cx.n0, np.arange(cx.n_edges)))
    return face_similarity_costs(ends, x0)


def h2_curl(cx, x1bar):
    """Triangle costs from the signed edge-signal sum around each triangle
    (``complexes.signed_face_sum``, the boundary signs of its faces)."""
    x1bar = _check_rows(x1bar, cx.n_edges, "x1bar")
    curl = signed_face_sum(cx.triangle_edges, x1bar)
    return _clamped(np.einsum("tf,tf->t", curl, curl))


def h2_similarity(cx, x1bar):
    """Triangle costs from pairwise differences of the face-edge signals.

    Orientation plays no role here: the cost sums ``||row_f - row_g||^2``
    over the three unordered face pairs of each triangle.
    """
    x1bar = _check_rows(x1bar, cx.n_edges, "x1bar")
    return face_similarity_costs(cx.triangle_edges, x1bar)


def face_similarity_costs(face_indices, signals):
    """Sum of pairwise squared row differences within each simplex.

    ``face_indices`` has one row per simplex listing the indices of its
    faces into ``signals``; any face count >= 2 works.  For edges with
    their two endpoint nodes it is the node-smoothness edge cost ``h1``.
    """
    face_indices = np.asarray(face_indices)
    rows = np.asarray(signals, dtype=float)[face_indices]  # (count, faces, F)
    k = face_indices.shape[1]
    out = np.zeros(face_indices.shape[0])
    for a in range(k):
        for b in range(a + 1, k):
            d = rows[:, a, :] - rows[:, b, :]
            out += np.einsum("sf,sf->s", d, d)
    return _clamped(out)


def quadratic_form(L, X):
    """``trace(X.T @ L @ X)``; verification oracle for the linear costs."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"L must be square, got shape {L.shape}")
    X = _check_rows(X, L.shape[0], "X")
    return float(np.einsum("nf,nm,mf->", X, L, X))


def _check_rows(X, n, name):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != n:
        raise ValueError(f"{name} must have {n} rows, got {X.shape[0]}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} has non-finite entries")
    return X


def _clamped(h):
    if (h < -_CLAMP).any():
        # Quadratic forms cannot go negative; anything beyond rounding noise
        # indicates a caller bug.
        raise ValueError("cost entries below the rounding-noise floor")
    return np.maximum(h, 0.0)

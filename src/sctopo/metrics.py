"""Selection scoring and the node-to-edge signal lift."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import _edge_vertices


@dataclass(frozen=True)
class ScoreReport:
    f1_edges: float
    f1_triangles: float
    precision_edges: float
    recall_edges: float
    precision_triangles: float
    recall_triangles: float


def _prf(est, tru):
    tp = int(np.sum((est == 1) & (tru == 1)))
    pp = int(np.sum(est == 1))
    ap = int(np.sum(tru == 1))
    precision = tp / pp if pp else 0.0
    recall = tp / ap if ap else 0.0
    f1 = 0.0 if precision + recall == 0 else \
        2.0 * precision * recall / (precision + recall)
    return f1, precision, recall


def f1_scores(estimated, truth):
    """Edge and triangle F1 of a selection against a ground truth.

    Each level is scored as an independent binary classification over the
    candidate simplices; F1 is 0 when precision + recall is 0.
    """
    if estimated.s1.size != truth.s1.size or estimated.s2.size != truth.s2.size:
        raise ValueError("selections live on different candidate complexes")
    f1e, pe, re_ = _prf(estimated.s1, truth.s1)
    f1t, pt, rt = _prf(estimated.s2, truth.s2)
    return ScoreReport(f1_edges=f1e, f1_triangles=f1t,
                       precision_edges=pe, recall_edges=re_,
                       precision_triangles=pt, recall_triangles=rt)


def edge_signals_from_nodes(x0):
    """Candidate-edge signals as the componentwise min of endpoint rows.

    Row order is candidate-lexicographic, matching the complex; the map
    is symmetric in the pair, so orientation plays no role.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = x0[:, None]
    n0 = x0.shape[0]
    i, j = _edge_vertices(n0, np.arange(n0 * (n0 - 1) // 2))
    return np.minimum(x0[i], x0[j])

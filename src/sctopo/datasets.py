"""On-disk dataset and selection formats.

A "real" dataset directory holds:

* ``node_features.csv``: one row per node, integer node id (0..n0-1,
  ascending) followed by numeric feature columns;
* ``topology.json``: ``{"edges": [[i, j], ...], "triangles":
  [[i, j, k], ...]}`` with vertex lists, i < j (< k).

The three failure modes are distinct exception types so callers can tell
a broken file from a well-formed file describing an impossible complex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .complexes import (
    Selection,
    _edge_rank,
    _edge_vertices,
    _triangle_rank,
    _triangle_vertices,
    build_candidate_complex,
    validate_inclusion,
)


class DatasetFormatError(ValueError):
    """File missing, unparseable, or structurally malformed."""


class DatasetIndexError(ValueError):
    """A vertex or simplex index falls outside the candidate ranges."""


class DatasetInclusionError(ValueError):
    """Ground-truth triangles reference edges absent from the truth."""


@dataclass
class RealDataset:
    node_features: np.ndarray  # (n0, n_features)
    ground_truth_edges: list  # candidate edge indices, ascending
    ground_truth_triangles: list  # candidate triangle indices, ascending

    @property
    def n0(self):
        return self.node_features.shape[0]

    @property
    def c1(self):
        return len(self.ground_truth_edges)

    @property
    def c2(self):
        return len(self.ground_truth_triangles)

    def truth_selection(self, cx):
        return Selection.from_indices(cx.n_edges, cx.n_triangles,
                                      self.ground_truth_edges,
                                      self.ground_truth_triangles)


def _read_features(path):
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise DatasetFormatError(f"cannot parse {path}: {exc}") from None
    if raw.shape[1] < 2:
        raise DatasetFormatError("node_features.csv needs id plus features")
    ids = raw[:, 0]
    if not np.array_equal(ids, np.arange(raw.shape[0])):
        raise DatasetFormatError("node ids must be 0..n0-1 in order")
    return raw[:, 1:]


def load_real_dataset(path):
    src = Path(path)
    feats = _read_features(src / "node_features.csv")
    n0 = feats.shape[0]
    if n0 < 3:
        raise DatasetFormatError("need at least 3 nodes")
    try:
        topo = json.loads((src / "topology.json").read_text())
        edges = [tuple(int(v) for v in e) for e in topo["edges"]]
        triangles = [tuple(int(v) for v in t) for t in topo["triangles"]]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad topology.json: {exc}") from None

    cx = build_candidate_complex(n0)
    for e in edges:
        if len(e) != 2 or not (0 <= e[0] < e[1] < n0):
            raise DatasetIndexError(f"edge {e} outside the candidate range")
    for t in triangles:
        if len(t) != 3 or not (0 <= t[0] < t[1] < t[2] < n0):
            raise DatasetIndexError(f"triangle {t} outside the candidate range")
    if len(set(edges)) != len(edges) or len(set(triangles)) != len(triangles):
        raise DatasetFormatError("duplicate simplices in topology.json")

    e_idx = sorted(cx.edge_id(i, j) for i, j in edges)
    t_idx = sorted(cx.triangle_id(i, j, k) for i, j, k in triangles)
    truth = Selection.from_indices(cx.n_edges, cx.n_triangles, e_idx, t_idx)
    missing = validate_inclusion(cx, truth)
    if missing:
        t, e = missing[0]
        raise DatasetInclusionError(
            f"triangle {cx.triangles[t]} lacks edge {cx.edges[e]} "
            f"({len(missing)} violations total)")
    return RealDataset(node_features=feats, ground_truth_edges=e_idx,
                       ground_truth_triangles=t_idx)


def save_real_dataset(ds, path):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    cx = build_candidate_complex(ds.n0)
    with_ids = np.column_stack([np.arange(ds.n0), ds.node_features])
    np.savetxt(out / "node_features.csv", with_ids, delimiter=",", fmt="%.17g")
    topo = {
        "edges": [list(cx.edges[e]) for e in ds.ground_truth_edges],
        "triangles": [list(cx.triangles[t]) for t in ds.ground_truth_triangles],
    }
    (out / "topology.json").write_text(json.dumps(topo, indent=2) + "\n")
    return out


def make_coauthorship_fixture(n_authors=20, n_papers=30, keyword_dim=40,
                              seed=0):
    """Synthetic co-authorship network with keyword-count node features.

    Papers draw 2 or 3 authors; every author pair on a paper becomes a
    ground-truth edge and every 3-author paper also becomes a triangle,
    so inclusion holds by construction.  Each paper carries a sparse
    topic profile and contributes Poisson keyword counts to its authors;
    an author's feature row is the mean over their papers, so co-authors
    end up close in plain squared distance (raw counts would instead
    separate authors by productivity).
    """
    if n_authors < 3:
        raise ValueError("need at least 3 authors")
    rng = np.random.default_rng(seed)
    cx = build_candidate_complex(n_authors)
    edges = set()
    triangles = set()
    features = np.zeros((n_authors, keyword_dim))
    papers_by = np.zeros(n_authors)
    for _ in range(n_papers):
        size = int(rng.choice([2, 3], p=[0.4, 0.6]))
        authors = np.sort(rng.choice(n_authors, size=size, replace=False))
        topic = np.zeros(keyword_dim)
        topic[rng.choice(keyword_dim, size=5, replace=False)] = rng.uniform(
            2.0, 6.0, size=5)
        for a in authors:
            features[a] += rng.poisson(topic)
            papers_by[a] += 1
        for i in range(size):
            for j in range(i + 1, size):
                edges.add((int(authors[i]), int(authors[j])))
        if size == 3:
            triangles.add(tuple(int(a) for a in authors))
    # background keyword noise so isolated authors are not all-zero rows
    features += rng.poisson(0.5, size=features.shape)
    features /= np.maximum(papers_by, 1.0)[:, None]
    e_idx = sorted(cx.edge_id(i, j) for i, j in edges)
    t_idx = sorted(cx.triangle_id(i, j, k) for i, j, k in triangles)
    return RealDataset(node_features=features, ground_truth_edges=e_idx,
                       ground_truth_triangles=t_idx)


def subsample_dataset(ds, n_sub, rng):
    """Induced sub-network on a uniform subset of ``n_sub`` nodes.

    Kept nodes are relabeled 0..n_sub-1 in ascending original order;
    ground truth restricts to simplices entirely inside the subset.  The
    truth indices are mapped through the closed-form lexicographic ranks,
    without building either candidate complex; an index outside the
    candidate range raises ``ValueError``.
    """
    if not 3 <= n_sub <= ds.n0:
        raise ValueError("subset size must lie in [3, n0]")
    keep = np.sort(rng.choice(ds.n0, size=n_sub, replace=False))
    relabel = np.full(ds.n0, -1)
    relabel[keep] = np.arange(n_sub)
    # truth simplices as relabeled vertex arrays; -1 marks a dropped vertex
    edges = relabel[np.stack(_edge_vertices(ds.n0, ds.ground_truth_edges))]
    edges = edges[:, (edges >= 0).all(axis=0)]
    tris = relabel[np.stack(_triangle_vertices(ds.n0, ds.ground_truth_triangles))]
    tris = tris[:, (tris >= 0).all(axis=0)]
    return RealDataset(
        node_features=ds.node_features[keep],
        ground_truth_edges=sorted(_edge_rank(n_sub, *edges).tolist()),
        ground_truth_triangles=sorted(_triangle_rank(n_sub, *tris).tolist()))


def save_selection(sel, path):
    """Selection as JSON: candidate sizes plus active index lists."""
    payload = {
        "n_edges": int(sel.s1.size),
        "n_triangles": int(sel.s2.size),
        "edges": [int(e) for e in sel.edge_indices],
        "triangles": [int(t) for t in sel.triangle_indices],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_selection(path):
    try:
        payload = json.loads(Path(path).read_text())
        return Selection.from_indices(payload["n_edges"],
                                      payload["n_triangles"],
                                      payload["edges"], payload["triangles"])
    except (OSError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read selection {path}: {exc}") from None

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
    candidate_n0,
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


def _vertex_array(items, what, width, n0):
    """One ``topology.json`` simplex list as a ``(count, width)`` array.

    Vertices must be JSON integers ``0 <= v0 < v1 (< v2) < n0``; floats,
    strings and booleans are a format error, never cast.
    """
    if not isinstance(items, list):
        raise DatasetFormatError(f"{what}s in topology.json must be a list")
    for s in items:
        if not (isinstance(s, list) and all(type(v) is int for v in s)):
            raise DatasetFormatError(f"{what} {s!r} is not a list of integers")
        if len(s) != width or not all(0 <= a < b < n0 for a, b in zip(s, s[1:])):
            raise DatasetIndexError(f"{what} {s} outside the candidate range")
    return np.array(items, dtype=np.int64).reshape(-1, width)


def load_real_dataset(path):
    src = Path(path)
    feats = _read_features(src / "node_features.csv")
    n0 = feats.shape[0]
    if n0 < 3:
        raise DatasetFormatError("need at least 3 nodes")
    try:
        topo = json.loads((src / "topology.json").read_text())
        edges, triangles = topo["edges"], topo["triangles"]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"bad topology.json: {exc}") from None
    edges = _vertex_array(edges, "edge", 2, n0)
    triangles = _vertex_array(triangles, "triangle", 3, n0)

    e_idx = np.sort(_edge_rank(n0, *edges.T))
    t_idx = np.sort(_triangle_rank(n0, *triangles.T))
    if (np.diff(e_idx) == 0).any() or (np.diff(t_idx) == 0).any():
        raise DatasetFormatError("duplicate simplices in topology.json")
    cx = build_candidate_complex(n0)
    missing = validate_inclusion(
        cx, Selection.from_indices(cx.n_edges, cx.n_triangles, e_idx, t_idx))
    if missing:
        t, e = missing[0]
        tri = [int(v[0]) for v in _triangle_vertices(n0, [t])]
        edge = [int(v[0]) for v in _edge_vertices(n0, [e])]
        raise DatasetInclusionError(
            f"triangle {tri} lacks edge {edge} ({len(missing)} violations total)")
    return RealDataset(node_features=feats, ground_truth_edges=e_idx.tolist(),
                       ground_truth_triangles=t_idx.tolist())


def save_real_dataset(ds, path):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    with_ids = np.column_stack([np.arange(ds.n0), ds.node_features])
    np.savetxt(out / "node_features.csv", with_ids, delimiter=",", fmt="%.17g")
    edges = np.column_stack(_edge_vertices(ds.n0, ds.ground_truth_edges))
    tris = np.column_stack(_triangle_vertices(ds.n0, ds.ground_truth_triangles))
    topo = {"edges": edges.tolist(), "triangles": tris.tolist()}
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
    edges = set()  # candidate ranks on n_authors nodes
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
        ids = authors.tolist()
        for i in range(size):
            for j in range(i + 1, size):
                edges.add(_edge_rank(n_authors, ids[i], ids[j]))
        if size == 3:
            triangles.add(_triangle_rank(n_authors, *ids))
    # background keyword noise so isolated authors are not all-zero rows
    features += rng.poisson(0.5, size=features.shape)
    features /= np.maximum(papers_by, 1.0)[:, None]
    return RealDataset(node_features=features, ground_truth_edges=sorted(edges),
                       ground_truth_triangles=sorted(triangles))


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
        candidate_n0(payload["n_edges"], payload["n_triangles"])
        for key in ("edges", "triangles"):
            if not isinstance(payload[key], list):
                raise ValueError(f"cannot read selection {path}: {key!r} "
                                 f"must be a JSON list; got {payload[key]!r}")
        return Selection.from_indices(payload["n_edges"],
                                      payload["n_triangles"],
                                      payload["edges"], payload["triangles"])
    except (OSError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read selection {path}: {exc}") from None

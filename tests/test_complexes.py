"""Structure tests for candidate complexes and incidence matrices."""

import dataclasses
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from sctopo.complexes import (
    CandidateComplex,
    Selection,
    TRIANGLE_FACE_SIGNS,
    _block_sum,
    _edge_vertices,
    _triangle_vertices,
    build_candidate_complex,
    laplacian_node,
    laplacian_upper_edge,
    signed_face_sum,
    similarity_laplacian,
    validate_inclusion,
)


def _reference_complex(n0):
    """Edges, triangles, faces and dense incidence built from combinations."""
    edges = list(combinations(range(n0), 2))
    triangles = list(combinations(range(n0), 3))
    pos = {e: r for r, e in enumerate(edges)}
    faces = [[pos[(i, j)], pos[(i, k)], pos[(j, k)]] for i, j, k in triangles]
    b1 = np.zeros((n0, len(edges)), dtype=np.int64)
    for r, (i, j) in enumerate(edges):
        b1[i, r], b1[j, r] = -1, 1
    b2 = np.zeros((len(edges), len(triangles)), dtype=np.int64)
    for t, f in enumerate(faces):
        b2[f, t] = (1, -1, 1)
    return edges, triangles, np.array(faces, dtype=np.int64), b1, b2


def test_build_matches_combinations_reference():
    for n0 in range(3, 26):
        cx = build_candidate_complex(n0)
        edges, triangles, faces, b1, b2 = _reference_complex(n0)
        assert cx.edges == tuple(edges)
        assert cx.triangles == tuple(triangles)
        assert all(type(v) is int for v in cx.edges[-1] + cx.triangles[-1])
        assert cx.triangle_edges.dtype == np.int64
        assert np.array_equal(cx.triangle_edges, faces)
        assert np.array_equal(cx.b1, b1) and cx.b1.dtype == np.int64
        assert np.array_equal(cx.b2, b2) and cx.b2.dtype == np.int64


def test_index_formulas_match_list_position():
    for n0 in range(3, 13):
        cx = build_candidate_complex(n0)
        for pos, (i, j) in enumerate(cx.edges):
            assert cx.edge_id(i, j) == pos
        for pos, (i, j, k) in enumerate(cx.triangles):
            assert cx.triangle_id(i, j, k) == pos


def test_counts_are_binomial():
    for n0 in range(3, 13):
        cx = build_candidate_complex(n0)
        assert cx.n_edges == comb(n0, 2)
        assert cx.n_triangles == comb(n0, 3)
        assert cx.b1.shape == (n0, cx.n_edges)
        assert cx.b2.shape == (cx.n_edges, cx.n_triangles)


def test_boundary_of_boundary_vanishes():
    for n0 in range(3, 13):
        cx = build_candidate_complex(n0)
        assert np.all(cx.b1 @ cx.b2 == 0)


def test_incidence_column_support():
    for n0 in (3, 5, 8):
        cx = build_candidate_complex(n0)
        assert np.all(np.count_nonzero(cx.b1, axis=0) == 2)
        assert np.all(np.count_nonzero(cx.b2, axis=0) == 3)
        assert np.all(np.abs(cx.b2) == cx.b2_plus)
        # each edge column: -1 at the tail, +1 at the head, tail < head
        for e, (i, j) in enumerate(cx.edges):
            assert cx.b1[i, e] == -1 and cx.b1[j, e] == 1
        # triangle columns carry the alternating face signs
        for t, (i, j, k) in enumerate(cx.triangles):
            faces = cx.triangle_edges[t]
            assert tuple(faces) == (cx.edge_id(i, j), cx.edge_id(i, k), cx.edge_id(j, k))
            assert np.all(cx.b2[faces, t] == TRIANGLE_FACE_SIGNS)


def test_signed_face_sum_is_the_transposed_boundary_product():
    # the written-out sum carries the signs of TRIANGLE_FACE_SIGNS: exact
    # against b2.T @ values on integer-valued rows
    rng = np.random.default_rng(5)
    for n0 in (3, 5, 8):
        cx = build_candidate_complex(n0)
        values = rng.integers(-9, 10, size=(cx.n_edges, 4)).astype(float)
        np.testing.assert_array_equal(
            signed_face_sum(cx.triangle_edges, values), cx.b2.T @ values)


def test_complexes_of_one_size_share_their_face_array_only():
    # the read-only faces are built once per n0; the dense views a complex
    # derives stay its own, so no cache keeps them alive
    a, b = build_candidate_complex(7), build_candidate_complex(7)
    assert a is not b
    assert a.triangle_edges is b.triangle_edges
    assert not a.triangle_edges.flags.writeable
    assert a.b1.shape == (7, 21)
    assert "b1" in vars(a) and "b1" not in vars(b)


def test_a_complex_stores_only_its_node_count():
    assert [f.name for f in dataclasses.fields(CandidateComplex)] == ["n0"]
    cx = CandidateComplex(7)
    assert cx.triangle_edges is build_candidate_complex(7).triangle_edges
    assert cx.triangle_edges.shape == (cx.n_triangles, 3) == (35, 3)


def test_arrays_are_frozen():
    cx = build_candidate_complex(4)
    for arr in (cx.b1, cx.b2, cx.b2_plus, cx.triangle_edges):
        with pytest.raises(ValueError):
            arr[0, 0] = 99


def test_selection_validation_and_indices():
    sel = Selection.from_indices(6, 4, [0, 2], [3])
    assert list(sel.edge_indices) == [0, 2]
    assert list(sel.triangle_indices) == [3]
    assert sel.n_selected_edges == 2 and sel.n_selected_triangles == 1
    assert sel.same_as(Selection(s1=sel.s1.copy(), s2=sel.s2.copy()))
    with pytest.raises(ValueError):
        Selection(s1=np.array([0, 2]), s2=np.array([1]))
    with pytest.raises(ValueError):
        Selection(s1=np.array([0.5]), s2=np.array([1]))


@pytest.mark.parametrize("dtype", [np.int64, np.int8, float, bool])
def test_selection_checks_entries_for_every_dtype(dtype):
    ok = np.array([0, 1, 1, 0]).astype(dtype)
    sel = Selection(s1=ok, s2=ok[:2])
    assert sel.s1.dtype == np.int8 and sel.s1.tolist() == [0, 1, 1, 0]
    assert Selection(s1=ok[:0], s2=ok).s1.size == 0
    if dtype is bool:
        # a bool array holds only 0 and 1; bad values reach the check in
        # lists that mix bools with other numbers
        bads = [[True, False, 0.5], [True, 2], [False, -1]]
    else:
        bads = [[0, 1, v] for v in (0.5, 2, -1) if dtype(v) == v]
    for bad in bads:
        v = np.array(bad, dtype=None if dtype is bool else dtype)
        for s1, s2 in ((v, ok), (ok, v)):
            with pytest.raises(ValueError, match="entries must be 0 or 1"):
                Selection(s1=s1, s2=s2)


def test_validate_inclusion_reports_missing_faces():
    cx = build_candidate_complex(4)
    # triangle (0,1,2) has faces (0,1)=0, (0,2)=1, (1,2)=3
    sel = Selection.from_indices(cx.n_edges, cx.n_triangles, [0, 1], [0])
    missing = validate_inclusion(cx, sel)
    assert missing == [(0, 3)]
    sel_ok = Selection.from_indices(cx.n_edges, cx.n_triangles, [0, 1, 3], [0])
    assert validate_inclusion(cx, sel_ok) == []
    with pytest.raises(ValueError):
        validate_inclusion(cx, Selection(s1=np.zeros(3, np.int8),
                                         s2=np.zeros(4, np.int8)))


def test_validate_inclusion_matches_loop_reference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cx = build_candidate_complex(int(rng.integers(3, 9)))
        s1 = rng.integers(0, 2, cx.n_edges)
        s2 = rng.integers(0, 2, cx.n_triangles)
        expect = [(t, int(e)) for t in range(cx.n_triangles) if s2[t]
                  for e in cx.triangle_edges[t] if not s1[e]]
        assert validate_inclusion(cx, Selection(s1, s2)) == expect


def test_node_laplacian_single_edge():
    cx = build_candidate_complex(3)
    s1 = np.zeros(cx.n_edges)
    s1[cx.edge_id(0, 1)] = 1
    L = laplacian_node(cx, s1)
    expect = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(L, expect)


def _loop_laplacians(cx, s1, s2):
    """Independent loop-based reference for the three selected Laplacians."""
    n0, n1 = cx.n0, cx.n_edges
    L0 = np.zeros((n0, n0))
    for e in np.flatnonzero(s1):
        i, j = cx.edges[e]
        L0[i, i] += 1; L0[j, j] += 1
        L0[i, j] -= 1; L0[j, i] -= 1
    Lup = np.zeros((n1, n1))
    for t in np.flatnonzero(s2):
        col = cx.b2[:, t].astype(float)
        Lup += np.outer(col, col)
    Lsim = np.zeros((n1, n1))
    for t in np.flatnonzero(s2):
        f = cx.triangle_edges[t]
        for a in range(3):
            Lsim[f[a], f[a]] += 2
            for b_ in range(3):
                if a != b_:
                    Lsim[f[a], f[b_]] -= 1
    return L0, Lup, Lsim


def test_laplacians_match_loop_reference():
    rng = np.random.default_rng(512)
    for _ in range(20):
        n0 = int(rng.integers(3, 8))
        cx = build_candidate_complex(n0)
        s1 = rng.integers(0, 2, cx.n_edges).astype(np.int8)
        s2 = rng.integers(0, 2, cx.n_triangles).astype(np.int8)
        L0, Lup, Lsim = _loop_laplacians(cx, s1, s2)
        assert np.allclose(laplacian_node(cx, s1), L0)
        assert np.allclose(laplacian_upper_edge(cx, s2), Lup)
        assert np.allclose(similarity_laplacian(cx, s2), Lsim)
        # the edge Hodge Laplacian, lower term from b1: b1 @ b2 == 0, so
        # the upper term adds nothing to b1 @ hodge
        B1s = cx.b1 * s1
        lower = (B1s.T @ B1s).astype(float)
        hodge = lower + laplacian_upper_edge(cx, s2)
        assert np.array_equal(cx.b1 @ hodge, cx.b1 @ lower)


def test_laplacians_equal_dense_incidence_formulas():
    # the scatter-add builds are exact on small integer weights, so they
    # must equal the dense products bit for bit
    rng = np.random.default_rng(3)
    for n0 in (3, 4, 7, 12, 20):
        cx = build_candidate_complex(n0)
        for s1, s2 in (
            (rng.integers(0, 2, cx.n_edges).astype(np.int8),
             rng.integers(0, 2, cx.n_triangles).astype(np.int8)),
            (rng.random(cx.n_edges) < 0.5, rng.random(cx.n_triangles) < 0.5),
            (np.zeros(cx.n_edges), np.zeros(cx.n_triangles)),
            (np.ones(cx.n_edges, np.int64), np.ones(cx.n_triangles, np.int64)),
            (rng.integers(-3, 4, cx.n_edges).astype(float),
             rng.integers(-3, 4, cx.n_triangles).astype(float)),
        ):
            dense_node = (cx.b1 * s1) @ cx.b1.T.astype(float)
            dense_up = (cx.b2 * s2) @ cx.b2.T.astype(float)
            dense_sim = (3 * np.diag(cx.b2_plus @ s2)
                         - (cx.b2_plus * s2) @ cx.b2_plus.T.astype(float))
            L0, Lup = laplacian_node(cx, s1), laplacian_upper_edge(cx, s2)
            assert L0.dtype == Lup.dtype == np.float64
            assert np.array_equal(L0, dense_node)
            assert np.array_equal(Lup, dense_up)
            assert np.array_equal(similarity_laplacian(cx, s2), dense_sim)


def _scatter_add_reference(size, faces, weights, block):
    s = np.flatnonzero(weights)
    L = np.zeros((size, size))
    np.add.at(L, (faces[s, :, None], faces[s, None, :]),
              weights[s].astype(float)[:, None, None] * block)
    return L


def test_block_sum_keeps_the_bits_of_a_scatter_add():
    # real-valued weights make the sums depend on their order: one
    # bincount adds the entries in the order np.add.at does
    rng = np.random.default_rng(12)
    cx = build_candidate_complex(7)
    ends = np.column_stack(_edge_vertices(7, np.arange(cx.n_edges)))
    cases = [(cx.n_edges, cx.triangle_edges, block) for block in (
        np.outer(TRIANGLE_FACE_SIGNS, TRIANGLE_FACE_SIGNS),
        3.0 * np.eye(3) - 1.0, rng.normal(size=(3, 3)))]
    cases.append((7, ends, rng.normal(size=(2, 2))))
    for size, faces, block in cases:
        n = len(faces)
        for weights in (rng.normal(size=n) * (rng.random(n) < 0.4),
                        rng.integers(0, 2, size=n).astype(np.int8),
                        rng.integers(-3, 4, size=n) * 0.1,
                        np.zeros(n)):
            got = _block_sum(size, faces, weights, "w", block)
            want = _scatter_add_reference(size, faces, weights, block)
            assert got.dtype == np.float64 and got.shape == (size, size)
            assert got.tobytes() == want.tobytes()  # signed zeros too


def test_rank_inverses_round_trip():
    for n0 in range(3, 13):
        cx = build_candidate_complex(n0)
        i, j = _edge_vertices(n0, np.arange(cx.n_edges))
        assert list(zip(i.tolist(), j.tolist())) == list(cx.edges)
        i, j, k = _triangle_vertices(n0, np.arange(cx.n_triangles))
        assert list(zip(i.tolist(), j.tolist(), k.tolist())) == list(cx.triangles)
        assert [cx.triangle_id(*t) for t in cx.triangles] == list(range(cx.n_triangles))
        assert _edge_vertices(n0, [])[0].size == 0
        assert _triangle_vertices(n0, [])[0].size == 0
        for bad in (-1, cx.n_edges):
            with pytest.raises(ValueError):
                _edge_vertices(n0, [0, bad])
        for bad in (-1, cx.n_triangles):
            with pytest.raises(ValueError):
                _triangle_vertices(n0, [bad])


def test_similarity_laplacian_single_triangle_block():
    cx = build_candidate_complex(3)
    s2 = np.ones(1)
    L = similarity_laplacian(cx, s2)
    assert np.array_equal(L, np.array([[2.0, -1.0, -1.0],
                                       [-1.0, 2.0, -1.0],
                                       [-1.0, -1.0, 2.0]]))


def test_build_rejects_small_n0():
    # a complex stores only n0, so one that is not a count would otherwise
    # fail only when its faces are first read; 7.0 and "5" raised TypeError
    for n0 in (2, -1, True, 7.0, "5"):
        with pytest.raises(ValueError, match="n0"):
            build_candidate_complex(n0)


def test_build_allocates_no_dense_incidence():
    # the three dense matrices of a 60-node complex take about 970 MB, and
    # the vertex tuples of a 120-node one about 20 MB
    for n0, limit in ((60, 50e6), (120, 30e6)):
        tracemalloc.start()
        try:
            build_candidate_complex(n0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, n0

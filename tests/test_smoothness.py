"""Cost vectors vs their quadratic-form definitions.

The linear costs exist so the objective can be written h @ s; each one
must reproduce the corresponding Laplacian quadratic form exactly.  The
quadratic side is computed through an independent code path
(``quadratic_form`` over the assembled Laplacians), so these are dual-route
checks, not reimplementations.
"""

import numpy as np
import pytest

from sctopo.complexes import (
    TRIANGLE_FACE_SIGNS,
    build_candidate_complex,
    laplacian_node,
    laplacian_upper_edge,
    similarity_laplacian,
)
from sctopo.datagen import SynthConfig, make_bundle
from sctopo.smoothness import (
    CostVectors,
    compute_costs,
    face_similarity_costs,
    h1_node_smoothness,
    h2_curl,
    h2_similarity,
    quadratic_form,
)

REL = 1e-9


def _rel_close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def test_h1_hand_values():
    cx = build_candidate_complex(3)
    x0 = np.array([[0.0], [3.0], [10.0]])
    assert np.allclose(h1_node_smoothness(cx, x0), [9.0, 100.0, 49.0])


def test_h2_curl_hand_values():
    cx = build_candidate_complex(3)
    assert h2_curl(cx, np.array([[1.0], [2.0], [1.0]]))[0] == pytest.approx(0.0)
    assert h2_curl(cx, np.array([[1.0], [-1.0], [1.0]]))[0] == pytest.approx(9.0)


def test_h2_curl_equals_the_boundary_sign_contraction_bitwise():
    # the signed face sum is the contraction of the faces' signals with
    # TRIANGLE_FACE_SIGNS, bit for bit, on the TREND low_curl realizations
    for n0 in (10, 15, 20):
        cx = build_candidate_complex(n0)
        for seed in range(10):
            for sigma in (0.0, 1.0):
                x1bar = make_bundle(SynthConfig(n0=n0, seed=seed,
                                                noise_sigma=sigma)).x1bar
                faces = x1bar[cx.triangle_edges]
                curl = np.tensordot(faces, TRIANGLE_FACE_SIGNS.astype(float),
                                    axes=([1], [0]))
                want = np.maximum(np.einsum("tf,tf->t", curl, curl), 0.0)
                np.testing.assert_array_equal(h2_curl(cx, x1bar), want)


def test_h2_similarity_hand_value():
    cx = build_candidate_complex(3)
    x1 = np.array([[0.0], [1.0], [2.0]])
    assert h2_similarity(cx, x1)[0] == pytest.approx(6.0)


def test_linear_equals_quadratic_everywhere():
    # oracle: h @ s must equal the trace quadratic form of the matching
    # selected Laplacian, for random signals and random binary selections
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n0 = int(rng.integers(3, 9))
        f0 = int(rng.integers(1, 7))
        f1 = int(rng.integers(1, 7))
        cx = build_candidate_complex(n0)
        x0 = rng.normal(size=(n0, f0))
        x1 = rng.normal(size=(cx.n_edges, f1))
        s1 = rng.integers(0, 2, cx.n_edges).astype(float)
        s2 = rng.integers(0, 2, cx.n_triangles).astype(float)

        lhs1 = float(h1_node_smoothness(cx, x0) @ s1)
        rhs1 = quadratic_form(laplacian_node(cx, s1), x0)
        assert _rel_close(lhs1, rhs1)

        lhs2 = float(h2_curl(cx, x1) @ s2)
        rhs2 = quadratic_form(laplacian_upper_edge(cx, s2), x1)
        assert _rel_close(lhs2, rhs2)

        lhs3 = float(h2_similarity(cx, x1) @ s2)
        rhs3 = quadratic_form(similarity_laplacian(cx, s2), x1)
        assert _rel_close(lhs3, rhs3)

        # full joint objective against the Hodge form plus node form
        full = lhs1 + lhs2
        # the Hodge form contains the lower term B1 s1 acting on edge
        # signals, not the node smoothness, so only the upper parts agree
        lower_l = ((cx.b1 * s1).T @ (cx.b1 * s1)).astype(float)
        hodge = quadratic_form(lower_l + laplacian_upper_edge(cx, s2), x1)
        lower = quadratic_form(lower_l, x1)
        assert _rel_close(hodge - lower, rhs2)
        assert full == pytest.approx(lhs1 + rhs2, rel=REL)


def test_costs_are_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n0 = int(rng.integers(3, 8))
        cx = build_candidate_complex(n0)
        x0 = rng.normal(size=(n0, 3)) * rng.choice([1e-3, 1.0, 1e3])
        x1 = rng.normal(size=(cx.n_edges, 4))
        for kind in ("curl", "similarity"):
            cv = compute_costs(cx, x0, x1, kind)
            assert np.all(cv.h1 >= 0)
            assert np.all(cv.h2 >= 0)
            assert cv.h2_kind == kind


def test_pair_costs_on_node_pairs_reduce_to_h1():
    # the similarity construction over 2-node faces is exactly the node
    # smoothness cost; agreement must be essentially exact
    rng = np.random.default_rng(31)
    for _ in range(50):
        n0 = int(rng.integers(3, 9))
        cx = build_candidate_complex(n0)
        x0 = rng.normal(size=(n0, int(rng.integers(1, 8))))
        pairs = np.asarray(cx.edges, dtype=np.int64)
        direct = h1_node_smoothness(cx, x0)
        via_pairs = face_similarity_costs(pairs, x0)
        assert np.all(np.abs(direct - via_pairs) <= 1e-12 * np.maximum(1.0, np.abs(direct)))


def test_compute_costs_validates_shapes_and_kind():
    cx = build_candidate_complex(4)
    x0 = np.zeros((4, 2))
    x1 = np.zeros((cx.n_edges, 2))
    with pytest.raises(ValueError):
        compute_costs(cx, x0, x1, "other")
    with pytest.raises(ValueError):
        compute_costs(cx, np.zeros((5, 2)), x1, "curl")
    with pytest.raises(ValueError):
        compute_costs(cx, x0, np.zeros((3, 2)), "curl")
    with pytest.raises(ValueError):
        CostVectors(h1=np.zeros(6), h2=np.zeros(4), h2_kind="nope")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compute_costs_rejects_non_finite_signals(bad):
    cx = build_candidate_complex(5)
    rng = np.random.default_rng(0)
    for which in ("x0", "x1bar"):
        signals = {"x0": rng.normal(size=(cx.n0, 3)),
                   "x1bar": rng.normal(size=(cx.n_edges, 3))}
        signals[which][2, 1] = bad
        for kind in ("curl", "similarity"):
            with pytest.raises(ValueError, match=f"{which} has non-finite"):
                compute_costs(cx, signals["x0"], signals["x1bar"], kind)


def test_quadratic_form_validates():
    with pytest.raises(ValueError):
        quadratic_form(np.zeros((3, 2)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        quadratic_form(np.zeros((3, 3)), np.zeros((4, 1)))
    # 1-d signal promoted to a single feature column
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert quadratic_form(L, np.array([0.0, 2.0])) == pytest.approx(4.0)

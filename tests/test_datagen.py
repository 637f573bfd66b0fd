"""Generator determinism, stream isolation, and planted-structure alignment."""

import numpy as np
import pytest

from sctopo.complexes import (
    Selection,
    build_candidate_complex,
    laplacian_node,
    laplacian_upper_edge,
    similarity_laplacian,
    validate_inclusion,
)
from sctopo.datagen import (
    STAGE_EDGES,
    STAGE_NODE_SIGNALS,
    STAGE_TRIANGLES,
    SynthConfig,
    filtered_signals,
    load_bundle,
    make_bundle,
    sample_er_selection,
    sample_triangle_truth,
    save_bundle,
    stage_rng,
)
from sctopo.learners import feasible_triangles
from sctopo.smoothness import compute_costs, quadratic_form


def test_er_extremes_and_determinism():
    rng = stage_rng(4, STAGE_EDGES)
    assert sample_er_selection(7, 1.0, rng).sum() == 21
    assert sample_er_selection(7, 0.0, rng).sum() == 0
    a = sample_er_selection(9, 0.4, stage_rng(11, STAGE_EDGES))
    b = sample_er_selection(9, 0.4, stage_rng(11, STAGE_EDGES))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_er_selection(5, 1.5, rng)


def test_triangle_truth_fraction_and_inclusion():
    cx = build_candidate_complex(8)
    s1 = sample_er_selection(8, 0.7, stage_rng(2, STAGE_EDGES))
    feas = feasible_triangles(cx, s1)
    for fraction, expect in ((1.0, feas.size), (0.0, 0),
                             (0.5, feas.size // 2)):
        s2 = sample_triangle_truth(cx, s1, fraction, stage_rng(2, 1))
        assert int(s2.sum()) == expect
        assert validate_inclusion(cx, Selection(s1=s1, s2=s2)) == []


def test_filtered_signals_zero_operator_is_identity_filter():
    rng = stage_rng(5, STAGE_NODE_SIGNALS)
    X = filtered_signals(np.zeros((6, 6)), 4, 0.0, rng)
    W = stage_rng(5, STAGE_NODE_SIGNALS).standard_normal((6, 4))
    assert np.allclose(X, W, atol=1e-12)


def test_filtered_signals_seed_repeatable_and_symmetric_only():
    L = np.diag([0.0, 1.0, 2.0])
    a = filtered_signals(L, 3, 0.0, stage_rng(8, 2))
    b = filtered_signals(L, 3, 0.0, stage_rng(8, 2))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        filtered_signals(np.array([[0.0, 1.0], [0.0, 0.0]]), 2, 0.0,
                         stage_rng(8, 2))


@pytest.mark.parametrize("which", ["node", "upper", "similarity"])
def test_filtered_signals_match_the_eigendecomposition(which):
    cx = build_candidate_complex(9)
    s1 = sample_er_selection(9, 0.6, stage_rng(3, STAGE_EDGES))
    s2 = sample_triangle_truth(cx, s1, 0.5, stage_rng(3, STAGE_TRIANGLES))
    L = {"node": laplacian_node(cx, s1),
         "upper": laplacian_upper_edge(cx, s2),
         "similarity": similarity_laplacian(cx, s2)}[which]
    assert np.abs(L).sum() > 0
    X = filtered_signals(L, 5, 0.3, stage_rng(3, STAGE_NODE_SIGNALS))
    rng = stage_rng(3, STAGE_NODE_SIGNALS)
    W = rng.standard_normal((L.shape[0], 5))
    E = rng.standard_normal((L.shape[0], 5))
    lam, U = np.linalg.eigh(L)
    reference = U @ ((1.0 / (1.0 + lam))[:, None] * (U.T @ W)) + 0.3 * E
    np.testing.assert_allclose(X, reference, rtol=0, atol=1e-10)


def test_filter_suppresses_rough_directions():
    # Monte Carlo: smoothness energy of filtered signals stays below that
    # of unfiltered white noise on the same operator
    cx = build_candidate_complex(8)
    s1 = np.ones(cx.n_edges, dtype=np.int8)
    L = laplacian_node(cx, s1)
    rng = np.random.default_rng(123)
    filtered = sum(quadratic_form(L, filtered_signals(L, 1, 0.0, rng))
                   for _ in range(200))
    white = sum(quadratic_form(L, rng.standard_normal((8, 1)))
                for _ in range(200))
    assert filtered < white


def test_bundle_reproducible_and_full_candidate_rows():
    for prior in ("low_curl", "similarity"):
        cfg = SynthConfig(n0=9, seed=31, f0=12, f1=7, edge_prior=prior)
        b1 = make_bundle(cfg)
        b2 = make_bundle(cfg)
        assert np.array_equal(b1.x0, b2.x0)
        assert np.array_equal(b1.x1bar, b2.x1bar)
        assert b1.truth.same_as(b2.truth)
        assert b1.x1bar.shape == (36, 7)
        cx = build_candidate_complex(9)
        assert validate_inclusion(cx, b1.truth) == []


def test_stage_streams_are_isolated():
    # changing signal-stage parameters must not disturb the planted truth
    base = make_bundle(SynthConfig(n0=8, seed=5, f0=4, f1=4))
    other = make_bundle(SynthConfig(n0=8, seed=5, f0=9, f1=2,
                                    noise_sigma=0.7))
    assert base.truth.same_as(other.truth)


def test_noise_adds_on_top_of_same_smooth_part():
    clean = make_bundle(SynthConfig(n0=7, seed=13, f0=5, f1=5))
    noisy = make_bundle(SynthConfig(n0=7, seed=13, f0=5, f1=5,
                                    noise_sigma=2.0))
    # identical W and E draws: the difference is exactly sigma * E
    delta = noisy.x0 - clean.x0
    E = None
    rng = stage_rng(13, STAGE_NODE_SIGNALS)
    rng.standard_normal((7, 5))  # skip W
    E = rng.standard_normal((7, 5))
    assert np.allclose(delta, 2.0 * E, atol=1e-12)


def test_costs_separate_truth_from_rest():
    # the alignment the learners rely on: true simplices are cheaper on
    # average than non-true ones, for the matched prior
    for prior, kind in (("low_curl", "curl"), ("similarity", "similarity")):
        h1_gaps, h2_gaps = [], []
        for seed in range(10):
            cfg = SynthConfig(n0=10, seed=seed, edge_prior=prior)
            bundle = make_bundle(cfg)
            cx = build_candidate_complex(10)
            costs = compute_costs(cx, bundle.x0, bundle.x1bar, kind)
            e_true = bundle.truth.s1 == 1
            t_true = bundle.truth.s2 == 1
            if 0 < e_true.sum() < e_true.size:
                h1_gaps.append(costs.h1[~e_true].mean() - costs.h1[e_true].mean())
            if 0 < t_true.sum() < t_true.size:
                h2_gaps.append(costs.h2[~t_true].mean() - costs.h2[t_true].mean())
        assert np.mean(h1_gaps) > 0
        assert np.mean(h2_gaps) > 0, prior


def test_bundle_round_trip(tmp_path):
    cfg = SynthConfig(n0=7, seed=77, f0=6, f1=5, edge_prior="similarity",
                      noise_sigma=0.25)
    bundle = make_bundle(cfg)
    save_bundle(bundle, tmp_path / "b")
    back = load_bundle(tmp_path / "b")
    assert back.config == cfg
    assert back.truth.same_as(bundle.truth)
    assert np.array_equal(back.x0, bundle.x0)
    assert np.array_equal(back.x1bar, bundle.x1bar)


def test_load_rejects_inconsistent_dirs(tmp_path):
    cfg = SynthConfig(n0=6, seed=1, f0=3, f1=3)
    save_bundle(make_bundle(cfg), tmp_path / "b")
    x0_path = tmp_path / "b" / "x0.csv"
    rows = x0_path.read_text().strip().splitlines()
    x0_path.write_text("\n".join(rows[:-1]) + "\n")
    with pytest.raises(ValueError):
        load_bundle(tmp_path / "b")


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n0=2)
    with pytest.raises(ValueError):
        SynthConfig(n0=5, er_p=0.0)
    with pytest.raises(ValueError):
        SynthConfig(n0=5, triangle_fraction=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n0=5, filter_kind="bandpass")
    with pytest.raises(ValueError):
        SynthConfig(n0=5, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(n0=5, edge_prior="flat")
    with pytest.raises(ValueError):
        SynthConfig(n0=5, seed=-1)

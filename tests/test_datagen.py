"""Generator determinism, stream isolation, and planted-structure alignment."""

import json

import numpy as np
import pytest

from sctopo.complexes import (
    Selection,
    build_candidate_complex,
    feasible_triangles,
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


@pytest.mark.parametrize("sigma", [0.25, 1.0, 3.0])
def test_noise_is_the_draw_after_the_smooth_part(sigma):
    # at sigma 0 only W is drawn; with noise, E is the stage rng's next
    # draw, added on top of the very bits of the noise-free result
    cx = build_candidate_complex(7)
    L = laplacian_node(cx, sample_er_selection(7, 0.6, stage_rng(5, STAGE_EDGES)))
    rng = stage_rng(5, STAGE_NODE_SIGNALS)
    smooth = filtered_signals(L, 4, 0.0, rng)
    E = rng.standard_normal((7, 4))
    noisy = filtered_signals(L, 4, sigma, stage_rng(5, STAGE_NODE_SIGNALS))
    np.testing.assert_array_equal(noisy, smooth + sigma * E)


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
    # the same W, and E the next draw: the difference is exactly sigma * E
    delta = noisy.x0 - clean.x0
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


@pytest.mark.parametrize("corrupt", [
    lambda meta: meta["config"].update(foo=1),  # unknown config key
    lambda meta: meta.pop("truth_edges"),
    lambda meta: meta.update(config=[6, 0.6]),  # not an object
    lambda meta: meta["config"].update(n0=6.0),
    lambda meta: meta["config"].update(seed="1"),
    None,  # a nan signal cell instead
], ids=["unknown_key", "no_truth_edges", "config_list", "n0_float",
        "seed_string", "nan_cell"])
def test_load_rejects_bad_files_naming_the_bundle(tmp_path, corrupt):
    cfg = SynthConfig(n0=6, seed=1, f0=3, f1=3)
    root = save_bundle(make_bundle(cfg), tmp_path / "bundle")
    if corrupt is None:
        x0_path = root / "x0.csv"
        x0_path.write_text("nan," + x0_path.read_text().split(",", 1)[1])
    else:
        meta = json.loads((root / "meta.json").read_text())
        corrupt(meta)
        (root / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="cannot read bundle .*bundle"):
        load_bundle(root)


def test_config_validation():
    for key, bad in (("n0", 2), ("er_p", 0.0), ("triangle_fraction", 1.5),
                     ("filter_kind", "bandpass"), ("noise_sigma", -0.1),
                     ("edge_prior", "flat"), ("seed", -1), ("seed", 1.5),
                     ("seed", True), ("f0", 2.5), ("f1", np.float64(3.0)),
                     ("n0", 8.0)):
        with pytest.raises(ValueError, match=key):
            SynthConfig(**{"n0": 5, key: bad})
    # numpy integers are stored as the plain ints that save_bundle writes
    assert type(SynthConfig(n0=np.int64(8), seed=np.int32(1)).seed) is int


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_noise_sigma_is_rejected(bad):
    with pytest.raises(ValueError, match="noise_sigma"):
        SynthConfig(n0=6, noise_sigma=bad)


def test_noise_that_overflows_the_signals_is_rejected():
    # a finite sigma whose product with a normal draw overflows; the
    # suite turns the overflow warning numpy would give into an error
    with pytest.raises(ValueError, match="noise_sigma"):
        make_bundle(SynthConfig(n0=6, noise_sigma=1e308))


@pytest.mark.parametrize("sigma", [0.0, 0.25, 1e300])
def test_valid_noise_keeps_the_bits_of_the_filter_formula(sigma):
    bundle = make_bundle(SynthConfig(n0=6, seed=3, f0=4, f1=4,
                                     noise_sigma=sigma))
    rng = stage_rng(3, STAGE_NODE_SIGNALS)
    W = rng.standard_normal((6, 4))
    E = rng.standard_normal((6, 4))
    L = laplacian_node(build_candidate_complex(6), bundle.truth.s1)
    np.testing.assert_array_equal(
        bundle.x0, np.linalg.solve(np.eye(6) + L, W) + sigma * E)

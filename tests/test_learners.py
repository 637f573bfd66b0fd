"""Learner behavior: staging, coupling, penalties, determinism."""

import tracemalloc

import numpy as np
import pytest

from sctopo.blp import oracle_enumerate
from sctopo.complexes import (
    Selection,
    build_candidate_complex,
    feasible_triangles,
    validate_inclusion,
)
from sctopo.datagen import SynthConfig, make_bundle
from sctopo.experiment import PRIOR_TO_KIND
from sctopo.learners import (
    default_gamma,
    learn_greedy,
    learn_hierarchical,
    learn_joint,
)
from sctopo.smoothness import CostVectors, compute_costs


def _random_costs(rng, cx, scale=3.0):
    return CostVectors(h1=rng.random(cx.n_edges) * scale,
                       h2=rng.random(cx.n_triangles) * scale,
                       h2_kind="curl")


def test_feasible_triangles_extremes():
    cx = build_candidate_complex(5)
    assert feasible_triangles(cx, np.ones(cx.n_edges)).size == cx.n_triangles
    assert feasible_triangles(cx, np.zeros(cx.n_edges)).size == 0


def test_feasible_triangles_four_cycle_is_empty():
    cx = build_candidate_complex(4)
    s1 = np.zeros(cx.n_edges, dtype=np.int8)
    for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        s1[cx.edge_id(i, j)] = 1
    assert feasible_triangles(cx, s1).size == 0


def test_hierarchical_stage1_no_improving_swap():
    rng = np.random.default_rng(40)
    for _ in range(30):
        cx = build_candidate_complex(int(rng.integers(4, 8)))
        costs = _random_costs(rng, cx)
        c1 = int(rng.integers(1, cx.n_edges))
        out = learn_hierarchical(cx, costs, c1, 0)
        sel = out.selection
        assert sel.n_selected_edges == c1
        picked = costs.h1[sel.s1 == 1]
        skipped = costs.h1[sel.s1 == 0]
        if skipped.size:
            assert picked.max() <= skipped.min() + 1e-15


def test_hierarchical_triangle_free_sets_relaxed_flag():
    cx = build_candidate_complex(4)
    h1 = np.full(cx.n_edges, 5.0)
    for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        h1[cx.edge_id(i, j)] = 0.1
    costs = CostVectors(h1=h1, h2=np.ones(cx.n_triangles), h2_kind="curl")
    out = learn_hierarchical(cx, costs, 4, 1)
    assert out.selection.n_selected_triangles == 0
    assert out.diagnostics["relaxed_cardinality"] is True
    assert out.diagnostics["feasible_triangles"] == 0


def test_hierarchical_full_small_complex():
    cx = build_candidate_complex(3)
    costs = CostVectors(h1=np.array([1.0, 2.0, 3.0]), h2=np.array([4.0]),
                        h2_kind="curl")
    out = learn_hierarchical(cx, costs, 3, 1)
    assert list(out.selection.triangle_indices) == [0]
    assert out.diagnostics["relaxed_cardinality"] is False
    assert out.objective == pytest.approx(10.0)


def test_joint_empty_when_floors_zero():
    cx = build_candidate_complex(5)
    costs = CostVectors(h1=np.zeros(cx.n_edges), h2=np.zeros(cx.n_triangles),
                        h2_kind="curl")
    out = learn_joint(cx, costs, 0, 0)
    assert out.selection.n_selected_edges == 0
    assert out.selection.n_selected_triangles == 0
    assert out.objective == 0.0


def test_joint_never_worse_than_hierarchical():
    rng = np.random.default_rng(77)
    for _ in range(100):
        cx = build_candidate_complex(int(rng.integers(4, 7)))
        costs = _random_costs(rng, cx)
        c1 = int(rng.integers(0, cx.n_edges + 1))
        c2 = int(rng.integers(0, 4))
        hier = learn_hierarchical(cx, costs, c1, c2)
        joint = learn_joint(cx, costs, c1, c2)
        assert validate_inclusion(cx, joint.selection) == []
        assert validate_inclusion(cx, hier.selection) == []
        if not hier.diagnostics["relaxed_cardinality"]:
            assert joint.objective <= hier.objective + 1e-9


def test_joint_matches_oracle_small():
    rng = np.random.default_rng(123)
    for _ in range(10):
        cx = build_candidate_complex(6)
        costs = _random_costs(rng, cx)
        out = learn_joint(cx, costs, 6, 2)
        ref = oracle_enumerate(cx, costs, 6, 2)
        assert out.selection.same_as(ref.selection)
        assert out.objective == pytest.approx(ref.objective, rel=1e-9)


def test_joint_at_n0_30_peaks_under_30_mb():
    # the LP holds its rows as index pairs and no m x n array; the dense
    # row pool it replaced peaked at 57 MB here (670 rows of 4,495 columns)
    cx = build_candidate_complex(30)
    bundle = make_bundle(SynthConfig(n0=30, seed=1, edge_prior="low_curl"))
    costs = compute_costs(cx, bundle.x0, bundle.x1bar,
                          PRIOR_TO_KIND["low_curl"])
    tracemalloc.start()
    try:
        out = learn_joint(cx, costs, bundle.truth.n_selected_edges,
                          bundle.truth.n_selected_triangles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.diagnostics["status"] == "optimal"
    assert peak < 30e6


def test_joint_at_n0_35_peaks_under_40_mb():
    # a separation round adopts the inverse it grew without copying it, so
    # the LP holds about two m x m inverses at a time (15.6 MB each at
    # m = 1,397 here), not three; with the copy it peaked at 49.8 MB
    cx = build_candidate_complex(35)
    bundle = make_bundle(SynthConfig(n0=35, seed=1, edge_prior="low_curl"))
    costs = compute_costs(cx, bundle.x0, bundle.x1bar,
                          PRIOR_TO_KIND["low_curl"])
    tracemalloc.start()
    try:
        out = learn_joint(cx, costs, bundle.truth.n_selected_edges,
                          bundle.truth.n_selected_triangles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.diagnostics["status"] == "optimal"
    assert peak < 40e6


def test_joint_raises_when_infeasible():
    cx = build_candidate_complex(4)
    costs = CostVectors(h1=np.ones(cx.n_edges), h2=np.ones(cx.n_triangles),
                        h2_kind="curl")
    with pytest.raises(ValueError):
        learn_joint(cx, costs, cx.n_edges + 1, 0)


@pytest.mark.parametrize("limit", [float("nan"), 2.5, True])
def test_joint_rejects_a_node_limit_that_is_not_an_integer(limit):
    cx = build_candidate_complex(5)
    costs = _random_costs(np.random.default_rng(3), cx)
    with pytest.raises(ValueError, match="node_limit"):
        learn_joint(cx, costs, 4, 2, node_limit=limit)


def test_joint_rejects_negative_costs():
    # the optimum here takes both negative edges (-3.0); the closed-form
    # completion assumes h1 >= 0 and would stop at one edge (-2.0)
    cx = build_candidate_complex(4)
    costs = CostVectors(h1=np.array([1.0, -2.0, 1.0, 1.0, -1.0, 1.0]),
                        h2=np.ones(cx.n_triangles), h2_kind="curl")
    with pytest.raises(ValueError, match="costs must be nonnegative"):
        learn_joint(cx, costs, 1, 0)


def test_greedy_gamma_zero_decouples():
    rng = np.random.default_rng(5)
    cx = build_candidate_complex(6)
    costs = _random_costs(rng, cx)
    out = learn_greedy(cx, costs, 6, 3, gamma=0.0)
    want_t = np.lexsort((np.arange(cx.n_triangles), costs.h2))[:3]
    assert sorted(out.selection.triangle_indices) == sorted(want_t)
    want_e = np.lexsort((np.arange(cx.n_edges), costs.h1))[:6]
    assert sorted(out.selection.edge_indices) == sorted(want_e)


def test_greedy_trace_never_increases():
    rng = np.random.default_rng(17)
    for _ in range(40):
        cx = build_candidate_complex(int(rng.integers(4, 8)))
        costs = _random_costs(rng, cx)
        c1 = int(rng.integers(1, cx.n_edges + 1))
        c2 = int(rng.integers(1, min(5, cx.n_triangles) + 1))
        gamma = float(rng.choice([0.0, 0.5, 2.0, 50.0]))
        out = learn_greedy(cx, costs, c1, c2, gamma=gamma)
        trace = out.diagnostics["objective_trace"]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert out.selection.n_selected_triangles == c2
        assert out.selection.n_selected_edges >= c1


def test_greedy_large_gamma_matches_hierarchical_triangles():
    # provable for the hierarchical start whenever enough triangles are
    # feasible under the stage-1 edges
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(60):
        cx = build_candidate_complex(int(rng.integers(5, 8)))
        costs = _random_costs(rng, cx)
        c1 = int(rng.integers(6, cx.n_edges + 1))
        c2 = 2
        hier = learn_hierarchical(cx, costs, c1, c2)
        if hier.diagnostics["relaxed_cardinality"]:
            continue
        checked += 1
        gamma = 1.0 + costs.h1.max() + costs.h2.max()
        out = learn_greedy(cx, costs, c1, c2, gamma=gamma, init="hierarchical")
        assert np.array_equal(out.selection.s2, hier.selection.s2)
        assert np.array_equal(out.selection.s1, hier.selection.s1)
        assert out.diagnostics["inclusion_violations"] == 0
    assert checked >= 20


def test_greedy_violations_weakly_decrease_in_gamma():
    rng = np.random.default_rng(61)
    for _ in range(15):
        cx = build_candidate_complex(int(rng.integers(5, 8)))
        costs = _random_costs(rng, cx)
        # few edges allowed, several triangles wanted: small gamma leaves
        # faces unpaid for
        c1, c2 = 3, 3
        counts = []
        for gamma in (0.0, 0.3, 1.0, 5.0, 50.0, default_gamma(costs)):
            out = learn_greedy(cx, costs, c1, c2, gamma=gamma)
            counts.append(out.diagnostics["inclusion_violations"])
        assert all(b <= a for a, b in zip(counts, counts[1:])), counts
        assert counts[-1] == 0  # default gamma pays for every face


def test_greedy_reports_nonconvergence():
    rng = np.random.default_rng(3)
    cx = build_candidate_complex(6)
    costs = _random_costs(rng, cx)
    out = learn_greedy(cx, costs, 8, 2, max_iter=1)
    assert out.diagnostics["converged"] is False
    assert out.diagnostics["iterations"] == 1


def test_learners_are_deterministic():
    rng = np.random.default_rng(99)
    cx = build_candidate_complex(6)
    costs = _random_costs(rng, cx)
    for learner in (lambda: learn_hierarchical(cx, costs, 7, 2),
                    lambda: learn_joint(cx, costs, 7, 2),
                    lambda: learn_greedy(cx, costs, 7, 2)):
        a, b = learner(), learner()
        assert a.selection.same_as(b.selection)
        assert a.objective == b.objective


def test_greedy_rejects_bad_arguments():
    cx = build_candidate_complex(4)
    costs = CostVectors(h1=np.ones(cx.n_edges), h2=np.ones(cx.n_triangles),
                        h2_kind="curl")
    for gamma in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="gamma"):
            learn_greedy(cx, costs, 2, 1, gamma=gamma)
    with pytest.raises(ValueError):
        learn_greedy(cx, costs, 2, 1, max_iter=0)
    with pytest.raises(ValueError):
        learn_greedy(cx, costs, 2, 1, init="random")


@pytest.mark.parametrize("gamma", [True, np.True_, "0.5"])
def test_greedy_rejects_a_gamma_that_is_not_a_real_number(gamma):
    # each ran before, read as 1.0, 1.0 and 0.5
    cx = build_candidate_complex(6)
    costs = _random_costs(np.random.default_rng(0), cx)
    with pytest.raises(ValueError, match="gamma"):
        learn_greedy(cx, costs, 6, 4, gamma=gamma)
    assert learn_greedy(cx, costs, 6, 4, gamma=np.float64(0.5)).diagnostics[
        "gamma"] == 0.5


_LEARNERS = {"joint": learn_joint, "hierarchical": learn_hierarchical,
             "greedy": learn_greedy}


@pytest.mark.parametrize("method", sorted(_LEARNERS))
@pytest.mark.parametrize("c1, c2, match", [
    (6.9, 4, "cardinality floor c1"),  # was read as 6
    (6.0, 4, "cardinality floor c1"),
    (True, 4, "cardinality floor c1"),  # was read as 1
    ("6", 4, "cardinality floor c1"),  # learn_joint raised TypeError
    (-1, 4, "cardinality floor c1"),
    (6, 4.0, "cardinality floor c2"),
    (6, np.False_, "cardinality floor c2"),
    (6, "4", "cardinality floor c2"),
    (6, None, "cardinality floor c2"),
    (6, -2, "cardinality floor c2"),
])
def test_learners_reject_floors_that_are_not_counts(method, c1, c2, match):
    cx = build_candidate_complex(6)
    costs = _random_costs(np.random.default_rng(0), cx)
    with pytest.raises(ValueError, match=match):
        _LEARNERS[method](cx, costs, c1, c2)
    # numpy integers are counts
    out = _LEARNERS[method](cx, costs, np.int64(6), np.int8(4))
    assert out.selection.n_selected_edges >= 6


@pytest.mark.parametrize("method", ["hierarchical", "greedy"])
def test_floors_above_the_candidates_keep_the_range_message(method):
    cx = build_candidate_complex(4)
    costs = _random_costs(np.random.default_rng(0), cx)
    for c1, c2 in ((cx.n_edges + 1, 0), (0, cx.n_triangles + 1)):
        with pytest.raises(ValueError, match="outside the candidate ranges"):
            _LEARNERS[method](cx, costs, c1, c2)


def test_hierarchical_and_greedy_report_wall_time():
    rng = np.random.default_rng(6)
    cx = build_candidate_complex(7)
    costs = _random_costs(rng, cx)
    for out in (learn_hierarchical(cx, costs, 8, 2),
                learn_greedy(cx, costs, 8, 2),
                learn_greedy(cx, costs, 8, 2, init="hierarchical")):
        assert 0.0 < out.diagnostics["wall_time"] < 60.0, out.method


def _check_scale_free(config):
    # TREND-sized instances: the simplex tolerances and the prune slack are
    # absolute numbers, yet costs scaled far below and far above 1 must
    # give the same optimum
    bundle = make_bundle(config)
    cx = build_candidate_complex(config.n0)
    costs = compute_costs(cx, bundle.x0, bundle.x1bar,
                          PRIOR_TO_KIND[config.edge_prior])
    c1, c2 = bundle.truth.n_selected_edges, bundle.truth.n_selected_triangles
    want = learn_joint(cx, costs, c1, c2)
    assert want.diagnostics["status"] == "optimal"
    for scale in (1e-15, 1e-12, 1e-9, 1e-6, 1e6, 1e9, 1e12, 1e15):
        scaled = CostVectors(h1=costs.h1 * scale, h2=costs.h2 * scale,
                             h2_kind=costs.h2_kind)
        got = learn_joint(cx, scaled, c1, c2)
        assert got.diagnostics["status"] == "optimal"
        assert got.selection.same_as(want.selection), scale


@pytest.mark.parametrize("prior", ["low_curl", "similarity"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_joint_selection_does_not_depend_on_cost_scale(seed, prior):
    _check_scale_free(SynthConfig(n0=20, seed=seed, edge_prior=prior))


def test_noisy_joint_selection_does_not_depend_on_cost_scale():
    _check_scale_free(SynthConfig(n0=20, seed=0, edge_prior="similarity",
                                  noise_sigma=0.5))

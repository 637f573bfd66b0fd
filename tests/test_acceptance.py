"""Top-level acceptance gate.

Each test covers one numbered criterion and prints a single PASS line
(visible under ``pytest -s``); the assertions are the gate itself:

1. exact solver vs. enumeration oracle on signal-derived instances;
2. exhaustive aggregated-vs-linearized inclusion equivalence at n0=4;
3. linear cost vectors vs. Laplacian quadratic forms;
4. boundary-operator structure and inclusion of learner outputs;
5. joint beats hierarchical on mean F1 in every synthetic cell, noise-free
   and at noise sigma 0.5 and 1.0;
6. greedy and hierarchical coincide wherever stage 1 leaves enough
   feasible triangles;
7. the pairwise similarity cost collapses to the edge cost on nodes;
8. hierarchical relaxes cardinality where joint meets it;
9. repeated runs write byte-identical aggregate tables.
"""

import itertools
import json

import numpy as np
import pytest

from sctopo.blp import build_joint_instance, oracle_enumerate, solve
from sctopo.cli import main as cli_main
from sctopo.complexes import (
    build_candidate_complex,
    laplacian_node,
    laplacian_upper_edge,
    similarity_laplacian,
    validate_inclusion,
)
from sctopo.experiment import ExperimentConfig, run_experiment
from sctopo.learners import learn_hierarchical, learn_joint
from sctopo.smoothness import (
    CostVectors,
    compute_costs,
    face_similarity_costs,
    h1_node_smoothness,
    h2_curl,
    h2_similarity,
    quadratic_form,
)

TREND = dict(n0_values=(10, 15, 20), seeds=tuple(range(10)),
             priors=("low_curl", "similarity"))


# the paper's claim under noise: the n0 = 15 cells at two noise levels
NOISY = dict(n0_values=(15,), seeds=tuple(range(10)),
             priors=("low_curl", "similarity"))
NOISE_SIGMAS = (0.5, 1.0)


@pytest.fixture(scope="module")
def trend_report():
    return run_experiment(ExperimentConfig(**TREND))


@pytest.fixture(scope="module")
def noisy_reports():
    return [run_experiment(ExperimentConfig(**NOISY, noise_sigma=sigma))
            for sigma in NOISE_SIGMAS]


def test_criterion_1_solver_matches_oracle_on_signal_instances():
    cx = build_candidate_complex(6)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(6, 20))
        x1bar = rng.normal(size=(cx.n_edges, 20))
        for kind in ("curl", "similarity"):
            costs = compute_costs(cx, x0, x1bar, kind)
            sol = solve(build_joint_instance(cx, costs, 6, 2))
            ref = oracle_enumerate(cx, costs, 6, 2)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9)
            assert sol.selection.same_as(ref.selection)
            assert sol.wall_time < 1.0
            worst = max(worst, sol.wall_time)
    print(f"\n[acceptance 1] PASS: 50 seeds x 2 cost kinds match the oracle; "
          f"slowest solve {worst * 1e3:.1f} ms")


def test_criterion_2_aggregated_equals_linearized_exhaustively():
    cx = build_candidate_complex(4)
    alpha = 1.0 / (cx.n0 - 2)
    checked = 0
    for bits1 in itertools.product((0, 1), repeat=cx.n_edges):
        s1 = np.array(bits1)
        for bits2 in itertools.product((0, 1), repeat=cx.n_triangles):
            s2 = np.array(bits2)
            aggregated = bool(np.all(s1 >= alpha * (cx.b2_plus @ s2)))
            linearized = all(s1[e] >= s2[t] for t in range(cx.n_triangles)
                             for e in cx.triangle_edges[t])
            assert aggregated == linearized, (bits1, bits2)
            checked += 1
    assert checked == 2 ** 10
    print(f"\n[acceptance 2] PASS: {checked} binary points classified "
          f"identically at alpha={alpha}")


def test_criterion_3_linear_costs_equal_quadratic_forms():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        cx = build_candidate_complex(int(rng.integers(5, 11)))
        x0 = rng.normal(size=(cx.n0, int(rng.integers(1, 8))))
        x1 = rng.normal(size=(cx.n_edges, int(rng.integers(1, 8))))
        s1 = rng.integers(0, 2, size=cx.n_edges)
        s2 = rng.integers(0, 2, size=cx.n_triangles)
        assert h1_node_smoothness(cx, x0) @ s1 == pytest.approx(
            quadratic_form(laplacian_node(cx, s1), x0), rel=1e-9, abs=1e-9)
        assert h2_curl(cx, x1) @ s2 == pytest.approx(
            quadratic_form(laplacian_upper_edge(cx, s2), x1),
            rel=1e-9, abs=1e-9)
        assert h2_similarity(cx, x1) @ s2 == pytest.approx(
            quadratic_form(similarity_laplacian(cx, s2), x1),
            rel=1e-9, abs=1e-9)
    print("\n[acceptance 3] PASS: 100 random instances, all three "
          "cost/Laplacian identities at 1e-9")


def test_criterion_4_boundary_structure_and_inclusion(trend_report):
    for n0 in range(3, 13):
        cx = build_candidate_complex(n0)
        assert np.array_equal(cx.b1 @ cx.b2,
                              np.zeros((n0, cx.n_triangles), dtype=np.int64))
        assert np.all(np.abs(cx.b1).sum(axis=0) == 2)
        assert np.all(np.abs(cx.b2).sum(axis=0) == 3)
    non_greedy = [r for r in trend_report.records if r["method"] != "greedy"]
    assert non_greedy
    assert all(r["inclusion_violations"] == 0 for r in non_greedy)
    print(f"\n[acceptance 4] PASS: b1 b2 = 0 for n0 3..12; "
          f"{len(non_greedy)} joint/hierarchical outputs all inclusion-clean")


def test_criterion_5_joint_dominates_hierarchical_per_cell(trend_report,
                                                          noisy_reports):
    cells = 0
    for report, grid in [(trend_report, TREND),
                         *((r, NOISY) for r in noisy_reports)]:
        sigma = report.config["noise_sigma"]
        agg = {(a["n0"], a["prior"], a["method"], a["metric"]): a["mean"]
               for a in report.aggregates}
        for n0 in grid["n0_values"]:
            for prior in grid["priors"]:
                for metric in ("f1_edges", "f1_triangles"):
                    joint = agg[(n0, prior, "joint", metric)]
                    hier = agg[(n0, prior, "hierarchical", metric)]
                    assert joint >= hier, (sigma, n0, prior, metric, joint,
                                           hier)
                    cells += 1
    slow = max(r["wall_time"] for r in trend_report.records
               if r["method"] == "joint" and r["n0"] == 20)
    assert slow <= 60.0
    print(f"\n[acceptance 5] PASS: joint >= hierarchical in all {cells} "
          f"cells, noisy ones included; slowest n0=20 joint solve "
          f"{slow:.2f} s")


def test_criterion_6_greedy_equals_hierarchical_when_feasible(trend_report):
    cells = {}
    for r in trend_report.records:
        cells.setdefault((r["n0"], r["prior"], r["seed"]), {})[r["method"]] = r
    checked = 0
    for key, by_method in sorted(cells.items()):
        hier = by_method["hierarchical"]
        if hier["diagnostics"]["relaxed_cardinality"]:
            continue  # fewer than c2 feasible triangles: carved out
        checked += 1
        assert by_method["greedy"]["selection"] == hier["selection"], key
    assert checked > 0
    print(f"\n[acceptance 6] PASS: greedy selections identical to "
          f"hierarchical on {checked}/{len(cells)} realizations")


def test_criterion_7_pair_similarity_reduces_to_edge_cost():
    rng = np.random.default_rng(7)
    for n0 in (3, 6, 9):
        cx = build_candidate_complex(n0)
        x0 = rng.normal(size=(n0, 13))
        pairwise = face_similarity_costs(np.array(cx.edges), x0)
        direct = h1_node_smoothness(cx, x0)
        assert np.all(np.abs(pairwise - direct) <= 1e-12 *
                      np.maximum(1.0, np.abs(direct)))
    print("\n[acceptance 7] PASS: two-node similarity cost matches the "
          "edge smoothness cost at 1e-12")


def test_criterion_8_hierarchical_relaxes_where_joint_meets_c2():
    # cheap edges form the 6-cycle (triangle-free), cheap triangles sit on
    # chords, so stage 1 strands stage 2 while the joint program pays for
    # the chords to reach c2
    cx = build_candidate_complex(6)
    h1 = np.full(cx.n_edges, 1.0)
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)):
        h1[cx.edge_id(i, j)] = 0.01
    h2 = np.full(cx.n_triangles, 10.0)
    h2[cx.triangle_id(0, 1, 2)] = 0.05
    h2[cx.triangle_id(2, 3, 4)] = 0.05
    costs = CostVectors(h1=h1, h2=h2, h2_kind="curl")

    hier = learn_hierarchical(cx, costs, 6, 2)
    assert hier.diagnostics["relaxed_cardinality"] is True
    assert hier.diagnostics["feasible_triangles"] == 0
    assert hier.selection.n_selected_triangles == 0
    assert validate_inclusion(cx, hier.selection) == []

    joint = learn_joint(cx, costs, 6, 2)
    ref = oracle_enumerate(cx, costs, 6, 2)
    assert joint.selection.n_selected_triangles == 2
    assert validate_inclusion(cx, joint.selection) == []
    assert joint.objective == pytest.approx(ref.objective, rel=1e-9)
    assert joint.selection.same_as(ref.selection)
    assert sorted(joint.selection.triangle_indices) == \
        sorted([cx.triangle_id(0, 1, 2), cx.triangle_id(2, 3, 4)])
    print("\n[acceptance 8] PASS: hierarchical relaxed to 0 triangles, "
          "joint met c2=2 at the oracle optimum")


def test_criterion_9_repeated_runs_are_byte_identical(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"n0_values": list(TREND["n0_values"]),
                                    "seeds": list(TREND["seeds"]),
                                    "priors": list(TREND["priors"])}))
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    assert a == b
    print(f"\n[acceptance 9] PASS: two runs, identical results.csv "
          f"({len(a)} bytes)")

"""Experiment harness: shapes, determinism, persisted-selection invariants."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from sctopo.complexes import Selection, build_candidate_complex, validate_inclusion
from sctopo.datagen import stage_rng
from sctopo.datasets import make_coauthorship_fixture, save_real_dataset, subsample_dataset
from sctopo.experiment import (
    ExperimentConfig,
    SCORE_METRICS,
    run_experiment,
    write_report,
)
from sctopo.metrics import f1_scores

_SMALL = dict(n0_values=(8,), seeds=(0, 1, 2), priors=("low_curl",))


def test_synthetic_run_shape_contract():
    cfg = ExperimentConfig(**_SMALL)
    rep = run_experiment(cfg)
    assert len(rep.records) == 3 * 3  # seeds x methods
    assert len(rep.aggregates) == 3 * len(SCORE_METRICS)
    methods = {r["method"] for r in rep.records}
    assert methods == {"joint", "hierarchical", "greedy"}
    for rec in rep.records:
        assert rec["n0"] == 8 and rec["prior"] == "low_curl"
        assert rec["c1"] == len(rec["truth"]["edges"])
        assert rec["c2"] == len(rec["truth"]["triangles"])
        assert "objective_trace" not in rec["diagnostics"]
    # the methods of one realization share one truth object, holding
    # plain ints (so report.json writes it once per record, unchanged)
    for seed in _SMALL["seeds"]:
        truths = [r["truth"] for r in rep.records if r["seed"] == seed]
        assert all(t is truths[0] for t in truths)
        assert all(type(v) is int
                   for v in truths[0]["edges"] + truths[0]["triangles"])

    # aggregates really are the mean/std over the per-seed records
    for agg in rep.aggregates:
        cell = [r[agg["metric"]] for r in rep.records
                if r["method"] == agg["method"]]
        assert agg["mean"] == pytest.approx(np.mean(cell))
        assert agg["std"] == pytest.approx(np.std(cell))


def test_scores_recomputable_from_persisted_selections():
    rep = run_experiment(ExperimentConfig(**_SMALL))
    cx = build_candidate_complex(8)
    for rec in rep.records:
        est = Selection.from_indices(cx.n_edges, cx.n_triangles,
                                     rec["selection"]["edges"],
                                     rec["selection"]["triangles"])
        tru = Selection.from_indices(cx.n_edges, cx.n_triangles,
                                     rec["truth"]["edges"],
                                     rec["truth"]["triangles"])
        score = f1_scores(est, tru)
        for metric in SCORE_METRICS[:-1]:
            assert rec[metric] == pytest.approx(getattr(score, metric))
        # the recorded violation count matches the persisted selection too
        assert rec["inclusion_violations"] == len(validate_inclusion(cx, est))
        if rec["method"] != "greedy":
            assert rec["inclusion_violations"] == 0


def test_results_csv_is_byte_identical_across_runs(tmp_path):
    cfg = ExperimentConfig(**_SMALL)
    _, csv_a = write_report(run_experiment(cfg), tmp_path / "a")
    _, csv_b = write_report(run_experiment(cfg), tmp_path / "b")
    assert csv_a.read_bytes() == csv_b.read_bytes()
    header = csv_a.read_text().splitlines()[0]
    assert header == "method,n0,prior,metric,mean,std"


def test_report_json_holds_config_and_records(tmp_path):
    cfg = ExperimentConfig(**_SMALL)
    rep = run_experiment(cfg)
    report_path, _ = write_report(rep, tmp_path)
    payload = json.loads(report_path.read_text())
    assert payload["config"]["n0_values"] == [8]
    assert payload["config"]["mode"] == "synthetic"
    assert len(payload["records"]) == len(rep.records)
    assert {a["metric"] for a in payload["aggregates"]} == set(SCORE_METRICS)
    # every method measures its own time; 0.0 would read as "instant"
    for rec in payload["records"]:
        assert rec["wall_time"] > 0.0, rec["method"]
        assert rec["wall_time"] == rec["diagnostics"]["wall_time"]
    # the joint solver says how many rounds pooled rows and how many it has
    cx = build_candidate_complex(8)
    for rec in payload["records"]:
        diag = rec["diagnostics"]
        if rec["method"] == "joint":
            assert 2 <= diag["pool_rows"] <= 2 + 3 * cx.n_triangles
            # the two floor rows are there before any round
            assert (diag["separations"] == 0) == (diag["pool_rows"] == 2)
        else:
            assert "separations" not in diag and "pool_rows" not in diag


def test_real_mode_runs_on_fixture(tmp_path):
    ds = make_coauthorship_fixture(n_authors=14, n_papers=30, keyword_dim=12,
                                   seed=4)
    root = save_real_dataset(ds, tmp_path / "fixture")
    cfg = ExperimentConfig(mode="real", dataset_path=str(root),
                           n0_values=(8,), seeds=(0, 1),
                           priors=("similarity",))
    rep = run_experiment(cfg)
    assert len(rep.records) == 2 * 3
    # truth in each record is the induced sub-network of the stored dataset
    cx = build_candidate_complex(8)
    for rec in rep.records:
        sub = subsample_dataset(ds, 8, stage_rng(rec["seed"], 4))
        assert rec["truth"]["edges"] == sub.ground_truth_edges
        assert rec["truth"]["triangles"] == sub.ground_truth_triangles
        assert rec["c1"] == sub.c1 and rec["c2"] == sub.c2
        est = Selection.from_indices(cx.n_edges, cx.n_triangles,
                                     rec["selection"]["edges"],
                                     rec["selection"]["triangles"])
        assert est.n_selected_edges >= rec["c1"]


def test_node_limit_propagates_to_joint_records():
    cfg = ExperimentConfig(n0_values=(8,), seeds=(0,), priors=("low_curl",),
                           node_limit=0)
    rep = run_experiment(cfg)
    by_method = {r["method"]: r for r in rep.records}
    joint = by_method["joint"]
    assert joint["diagnostics"]["status"] == "node_limit"
    # with no nodes explored the incumbent is the hierarchical warm start
    assert joint["selection"] == by_method["hierarchical"]["selection"]


@pytest.mark.parametrize("mode", ["synthetic", "real"])
@pytest.mark.parametrize("key, value", [
    ("f0", 2.5), ("f0", 0), ("f1", 0), ("f1", True), ("er_p", float("nan")),
    ("er_p", 0.0), ("er_p", 1.5), ("triangle_fraction", 2.0),
    ("triangle_fraction", -0.1), ("noise_sigma", -1.0),
    ("noise_sigma", float("inf")), ("gamma", True), ("gamma", -0.5),
])
def test_config_checks_its_synthetic_fields_when_built(mode, key, value):
    # checked at construction in both modes, not at the first realization
    # (and never in real mode, where they go unused)
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(mode=mode, dataset_path="unused", **{key: value})


def test_config_keeps_feature_counts_as_plain_ints():
    cfg = ExperimentConfig(f0=np.int64(7), f1=np.int64(9))
    assert (cfg.f0, cfg.f1) == (7, 9)
    assert type(cfg.f0) is int and type(cfg.f1) is int


def test_config_validation_and_json_loading(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(mode="imagined")
    with pytest.raises(ValueError):
        ExperimentConfig(mode="real")  # no dataset_path
    with pytest.raises(ValueError):
        ExperimentConfig(priors=("uniform",))
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("joint", "annealing"))
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    # a node_limit built directly is an integer too, as the JSON and CLI
    # paths require; nan used to run without a limit
    for limit in (float("nan"), 2.5, 3.0, True, -1):
        with pytest.raises(ValueError, match="node_limit"):
            ExperimentConfig(node_limit=limit)
    for gamma in (float("nan"), float("inf"), -float("inf"), -0.5):
        with pytest.raises(ValueError, match="gamma"):
            ExperimentConfig(gamma=gamma)
    # a numpy integer is kept as an int, which report.json can hold
    assert type(ExperimentConfig(node_limit=np.int64(3)).node_limit) is int

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n0_values": [8], "seeds": [0, 1],
                                "priors": ["similarity"], "er_p": 0.5}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.n0_values == (8,)
    assert cfg.seeds == (0, 1)
    assert cfg.priors == ("similarity",)
    assert cfg.er_p == 0.5
    assert cfg.mode == "synthetic"

    path.write_text(json.dumps({"n0_values": [8], "frobnicate": 1}))
    with pytest.raises(ValueError, match="frobnicate"):
        ExperimentConfig.from_json(path)


def test_config_stores_sizes_and_seeds_as_plain_ints(tmp_path):
    # numpy integers used to run the whole experiment and then fail in
    # write_report, since json cannot write them
    cfg = ExperimentConfig(n0_values=(np.int64(5),), seeds=(np.int64(0),),
                           methods=("joint",))
    assert cfg.n0_values == (5,) and cfg.seeds == (0,)
    assert all(type(v) is int for v in cfg.n0_values + cfg.seeds)
    write_report(run_experiment(cfg), tmp_path)
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["config"]["n0_values"] == [5] and saved["seeds"] == [0]
    # a list is stored as a tuple, as from_json does
    assert ExperimentConfig(n0_values=[5, 6], seeds=[1]).n0_values == (5, 6)
    for key, bad in (("n0_values", 5.0), ("n0_values", True),
                     ("n0_values", -5), ("n0_values", "5"),
                     ("seeds", True), ("seeds", 0.0), ("seeds", -1),
                     ("seeds", np.float64(1.0))):
        with pytest.raises(ValueError, match=f"{key} entry"):
            ExperimentConfig(**{key: (bad,)})
    with pytest.raises(ValueError, match="at least 3"):
        ExperimentConfig(n0_values=(np.int64(2),))


def test_config_json_round_trips_every_field(tmp_path):
    path = tmp_path / "cfg.json"
    for cfg in (ExperimentConfig(),
                ExperimentConfig(mode="real", dataset_path="data", gamma=2.5,
                                 er_p=1, noise_sigma=0.25, f0=7,
                                 greedy_init="ones", node_limit=3)):
        path.write_text(json.dumps(asdict(cfg)))
        assert ExperimentConfig.from_json(path) == cfg


def test_methods_subset_runs_alone():
    cfg = ExperimentConfig(n0_values=(8,), seeds=(0,), priors=("low_curl",),
                           methods=("hierarchical",))
    rep = run_experiment(cfg)
    assert [r["method"] for r in rep.records] == ["hierarchical"]
    assert {a["method"] for a in rep.aggregates} == {"hierarchical"}

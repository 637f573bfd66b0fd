"""Experiment runner: generate or load data, fit every learner, score, persist.

One realization = one (n0, prior, seed) cell.  Synthetic mode draws a
fresh bundle per cell; real mode subsamples a node subset from a loaded
dataset per seed and lifts node features to candidate-edge signals by
componentwise min.  The cardinality floors are always the ground-truth
counts.

Outputs: ``report.json`` holds per-realization records (scores, selected
indices, method diagnostics, wall time) plus aggregates, one to a line;
``results.csv`` is the tidy aggregate table (method, n0, prior, metric,
mean, std) and contains no timing, so repeated runs of the same config
are byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .blp import DEFAULT_NODE_LIMIT
from .complexes import (build_candidate_complex, check_count, check_real,
                        validate_inclusion)
from .datagen import SynthConfig, fields_from_json, make_bundle, stage_rng
from .datasets import load_real_dataset, subsample_dataset
from .learners import (GREEDY_INITS, learn_greedy, learn_hierarchical,
                       learn_joint)
from .metrics import edge_signals_from_nodes, f1_scores
from .smoothness import compute_costs

PRIOR_TO_KIND = {"low_curl": "curl", "similarity": "similarity"}
METHODS = ("joint", "hierarchical", "greedy")
SCORE_METRICS = ("f1_edges", "f1_triangles", "precision_edges", "recall_edges",
                 "precision_triangles", "recall_triangles", "objective")
# rng stream tag for real-mode sub-network draws; 0..3 belong to datagen
_STAGE_SUBNET = 4
# the SynthConfig fields that every synthetic cell of a config shares
_SYNTH_FIELDS = ("er_p", "triangle_fraction", "f0", "f1", "noise_sigma")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "synthetic"
    n0_values: tuple[int, ...] = (10,)
    seeds: tuple[int, ...] = tuple(range(10))
    priors: tuple[str, ...] = ("low_curl",)
    methods: tuple[str, ...] = METHODS
    er_p: float = 0.6
    triangle_fraction: float = 0.5
    f0: int = 100
    f1: int = 100
    noise_sigma: float = 0.0
    gamma: float | None = None
    greedy_init: str = "hierarchical"
    node_limit: int = DEFAULT_NODE_LIMIT
    dataset_path: str | None = None

    def __post_init__(self):
        if self.mode not in ("synthetic", "real"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "real" and not self.dataset_path:
            raise ValueError("real mode needs dataset_path")
        # plain ints, so that report.json can hold them
        for key in ("n0_values", "seeds"):
            object.__setattr__(self, key, tuple(
                check_count(v, f"{key} entry") for v in getattr(self, key)))
        object.__setattr__(self, "node_limit", check_count(self.node_limit, "node_limit"))
        for key in ("n0_values", "seeds", "priors", "methods"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must be nonempty")
            # a repeat would count one realization or record twice
            if len(set(values)) != len(values):
                raise ValueError(f"{key} repeats an entry: {list(values)}")
        if min(self.n0_values) < 3:
            raise ValueError(f"n0_values must be at least 3; "
                             f"got {min(self.n0_values)}")
        for prior in self.priors:
            if prior not in PRIOR_TO_KIND:
                raise ValueError(f"unknown prior {prior!r}")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        # the synthetic fields, checked by SynthConfig itself in either
        # mode, so that no run fails at its first realization, and kept
        # as the plain ints and floats it makes them
        synth = self._synth_config(min(self.n0_values))
        for key in _SYNTH_FIELDS:
            object.__setattr__(self, key, getattr(synth, key))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", check_real(self.gamma, "gamma"))
        if self.greedy_init not in GREEDY_INITS:
            raise ValueError(f"unknown greedy_init {self.greedy_init!r}")

    @classmethod
    def from_json(cls, path):
        return cls(**fields_from_json(cls, json.loads(Path(path).read_text())))

    def _synth_config(self, n0, seed=0, edge_prior="low_curl"):
        """The ``SynthConfig`` of the synthetic cell ``(n0, seed, edge_prior)``."""
        return SynthConfig(n0=n0, seed=seed, edge_prior=edge_prior,
                           **{key: getattr(self, key) for key in _SYNTH_FIELDS})


@dataclass
class EvalReport:
    config: dict
    seeds: list
    records: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)


def _run_one(method, cx, costs, c1, c2, config):
    if method == "joint":
        return learn_joint(cx, costs, c1, c2, node_limit=config.node_limit)
    if method == "hierarchical":
        return learn_hierarchical(cx, costs, c1, c2)
    return learn_greedy(cx, costs, c1, c2, gamma=config.gamma,
                        init=config.greedy_init)


def run_experiment(config):
    dataset = None
    if config.mode == "real":
        dataset = load_real_dataset(config.dataset_path)
        too_big = [n0 for n0 in config.n0_values if n0 > dataset.n0]
        if too_big:
            raise ValueError(f"n0_values {too_big} exceed the dataset's "
                             f"{dataset.n0} nodes")
    report = EvalReport(config=asdict(config), seeds=list(config.seeds))

    for n0 in config.n0_values:
        cx = build_candidate_complex(n0)
        for prior in config.priors:
            kind = PRIOR_TO_KIND[prior]
            for seed in config.seeds:
                if config.mode == "synthetic":
                    bundle = make_bundle(config._synth_config(n0, seed, prior))
                    x0, x1bar, truth = bundle.x0, bundle.x1bar, bundle.truth
                else:
                    sub = subsample_dataset(dataset, n0,
                                            stage_rng(seed, _STAGE_SUBNET))
                    truth = sub.truth_selection(cx)
                    x0 = sub.node_features
                    x1bar = edge_signals_from_nodes(x0)
                costs = compute_costs(cx, x0, x1bar, kind)
                c1 = truth.n_selected_edges
                c2 = truth.n_selected_triangles
                # one object shared by the records of every method
                truth_lists = {"edges": truth.edge_indices.tolist(),
                               "triangles": truth.triangle_indices.tolist()}
                for method in config.methods:
                    out = _run_one(method, cx, costs, c1, c2, config)
                    violations = validate_inclusion(cx, out.selection)
                    if method != "greedy" and violations:
                        raise AssertionError(
                            f"{method} produced an inclusion-violating "
                            f"selection at n0={n0} seed={seed}")
                    score = f1_scores(out.selection, truth)
                    rec = {
                        "method": method,
                        "n0": int(n0),
                        "prior": prior,
                        "seed": int(seed),
                        "c1": int(c1),
                        "c2": int(c2),
                        "objective": out.objective,
                        "wall_time": out.diagnostics["wall_time"],
                        "inclusion_violations": len(violations),
                        "selection": {
                            "edges": out.selection.edge_indices.tolist(),
                            "triangles":
                                out.selection.triangle_indices.tolist(),
                        },
                        "truth": truth_lists,
                        "diagnostics": {k: v for k, v in
                                        out.diagnostics.items()
                                        if k != "objective_trace"},
                    }
                    for m in SCORE_METRICS[:-1]:
                        rec[m] = getattr(score, m)
                    report.records.append(rec)

    for n0 in config.n0_values:
        for prior in config.priors:
            for method in config.methods:
                cell = [r for r in report.records
                        if r["n0"] == n0 and r["prior"] == prior
                        and r["method"] == method]
                for metric in SCORE_METRICS:
                    vals = np.array([r[metric] for r in cell], dtype=float)
                    report.aggregates.append({
                        "method": method,
                        "n0": int(n0),
                        "prior": prior,
                        "metric": metric,
                        "mean": float(vals.mean()),
                        "std": float(vals.std()),
                    })
    return report


def write_report(report, out_dir):
    """Write ``report.json`` and ``results.csv`` into ``out_dir``.

    ``report.json`` is one object with its keys in sorted order: the
    ``aggregates`` and ``records`` lists hold one entry per line, and
    ``config`` and ``seeds`` take a line each.  Every line is encoded by
    the C encoder with sorted keys; ``indent`` would turn that encoder off
    and take four times as long on the TREND report.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    encode = json.JSONEncoder(sort_keys=True).encode

    def one_per_line(items):
        return "[\n" + ",\n".join(map(encode, items)) + "\n]"

    report_path = out / "report.json"
    report_path.write_text(
        f'{{"aggregates": {one_per_line(report.aggregates)},\n'
        f'"config": {encode(report.config)},\n'
        f'"records": {one_per_line(report.records)},\n'
        f'"seeds": {encode(report.seeds)}}}\n')
    csv_path = out / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "n0", "prior", "metric", "mean", "std"])
        for row in report.aggregates:
            writer.writerow([row["method"], row["n0"], row["prior"],
                             row["metric"], repr(row["mean"]),
                             repr(row["std"])])
    return report_path, csv_path

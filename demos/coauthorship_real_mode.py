# Real-data mode: learn sub-network topology from node features alone.
#
# The shipped fixture is a synthetic co-authorship network: papers
# connect 2-3 authors, three-author papers are the true triangles, and
# author features are mean keyword profiles over their papers.  The
# harness draws seeded sub-networks, lifts node features to candidate
# edges by componentwise min, and runs the same learners as in the
# synthetic mode.

import tempfile
from pathlib import Path

import numpy as np

from sctopo import (
    ExperimentConfig,
    build_candidate_complex,
    make_coauthorship_fixture,
    run_experiment,
    save_real_dataset,
    subsample_dataset,
)
from sctopo.datagen import stage_rng

ds = make_coauthorship_fixture(n_authors=20, n_papers=30, keyword_dim=40,
                               seed=0)
print(f"fixture: {ds.n0} authors, {ds.c1} co-author edges, "
      f"{ds.c2} three-author triangles")

# co-authors really are closer in feature space, which is all the
# learners get to see
cx = build_candidate_complex(ds.n0)
d2 = np.square(ds.node_features[:, None] - ds.node_features[None]).sum(axis=2)
iu = np.triu_indices(ds.n0, k=1)
on = np.zeros_like(d2, dtype=bool)
for e in ds.ground_truth_edges:
    i, j = cx.edges[e]
    on[i, j] = True
print(f"mean squared distance: co-authors {d2[iu][on[iu]].mean():.2f}, "
      f"others {d2[iu][~on[iu]].mean():.2f}")

# each seed draws its own induced sub-network with relabeled nodes
sub = subsample_dataset(ds, 12, stage_rng(0, 4))
print(f"seed-0 sub-network on 12 authors: {sub.c1} edges, {sub.c2} triangles")

# real mode reads the dataset from a directory
with tempfile.TemporaryDirectory() as tmp:
    root = save_real_dataset(ds, Path(tmp) / "coauthors")
    cfg = ExperimentConfig(mode="real", dataset_path=str(root),
                           n0_values=(12, 14), seeds=tuple(range(5)),
                           priors=("similarity",))
    report = run_experiment(cfg)

agg = {(a["n0"], a["method"], a["metric"]): a["mean"]
       for a in report.aggregates}
for n0 in cfg.n0_values:
    for metric in ("f1_edges", "f1_triangles"):
        vals = " ".join(f"{m}={agg[(n0, m, metric)]:.3f}"
                        for m in ("joint", "hierarchical", "greedy"))
        print(f"n0={n0} {metric:13s} {vals}")

# on this fixture the three learners typically coincide: the feature
# geometry makes the globally cheapest triangles already feasible under
# the cheapest edges, so the coupling never bites.  the planted
# synthetic regime (see trend_experiment.py) is where they separate.

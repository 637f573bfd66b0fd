"""
The benchmark harness at small scale
====================================

One config drives the whole loop: sizes x priors x seeds x methods,
scored against the planted truth and aggregated into a tidy csv.  At
n0 in {10, 15, 20} with 10 seeds this reproduces the headline ordering:
joint >= hierarchical on mean F1 in every cell, with greedy glued to
hierarchical.  Here a trimmed grid keeps the demo quick; scale up the
tuples to reproduce the full table.
"""

import tempfile

from sctopo import ExperimentConfig, run_experiment, write_report

cfg = ExperimentConfig(n0_values=(10, 15), seeds=tuple(range(5)),
                       priors=("low_curl", "similarity"))
report = run_experiment(cfg)
print(f"{len(report.records)} records "
      f"({len(cfg.n0_values)} sizes x {len(cfg.priors)} priors x "
      f"{len(cfg.seeds)} seeds x 3 methods)")

agg = {(a["n0"], a["prior"], a["method"], a["metric"]): a["mean"]
       for a in report.aggregates}
print(f"\n{'cell':26s} {'joint':>8s} {'hierarchical':>13s} {'greedy':>8s}")
for n0 in cfg.n0_values:
    for prior in cfg.priors:
        for metric in ("f1_edges", "f1_triangles"):
            row = [agg[(n0, prior, m, metric)]
                   for m in ("joint", "hierarchical", "greedy")]
            label = f"n0={n0} {prior} {metric.split('_')[1]}"
            print(f"{label:26s} {row[0]:8.3f} {row[1]:13.3f} {row[2]:8.3f}")

# persisted outputs: report.json carries every record (selections
# included, so scores can be recomputed later); results.csv carries the
# aggregate table and no timings, making reruns byte-identical
with tempfile.TemporaryDirectory() as tmp:
    report_path, csv_path = write_report(report, tmp)
    print(f"\nwrote {report_path.name} and {csv_path.name}")
    with open(csv_path) as fh:
        for line in list(fh)[:4]:
            print(" ", line.rstrip())

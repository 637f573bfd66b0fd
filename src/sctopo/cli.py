"""Command line front end.

Exit codes: 0 success, 1 invalid input, 2 solver node limit reached.
``solve`` also exits 1 when the instance is infeasible (the floors exceed
the candidate counts), since that is a property of the input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import blp
from .datagen import EDGE_PRIORS, SynthConfig, make_bundle, save_bundle
from .datasets import load_selection
from .experiment import ExperimentConfig, run_experiment, write_report
from .metrics import f1_scores


def _cmd_synth(args):
    cfg = SynthConfig(n0=args.n0, er_p=args.p, seed=args.seed,
                      edge_prior=args.prior)
    out = save_bundle(make_bundle(cfg), args.out)
    print(json.dumps({"written": str(out), "n0": cfg.n0, "seed": cfg.seed,
                      "prior": cfg.edge_prior}))
    return 0


def _cmd_run(args):
    config = ExperimentConfig.from_json(args.config)
    report = run_experiment(config)
    report_path, csv_path = write_report(report, args.out)
    limited = sorted({r["method"] for r in report.records
                      if r["diagnostics"].get("status") == "node_limit"})
    print(json.dumps({"report": str(report_path), "results": str(csv_path),
                      "records": len(report.records),
                      "node_limited_methods": limited}))
    return 2 if limited else 0


def _cmd_eval(args):
    estimate = load_selection(args.estimate)
    truth = load_selection(args.truth)
    print(json.dumps(dataclasses.asdict(f1_scores(estimate, truth)), indent=2))
    return 0


def _cmd_solve(args):
    instance = blp.read_instance(args.instance)
    sol = blp.solve(instance, node_limit=args.node_limit)
    payload = {
        "status": sol.status,
        # null instead of Infinity keeps the output strict JSON
        "objective": sol.objective if math.isfinite(sol.objective) else None,
        "lower_bound": (sol.lower_bound
                        if math.isfinite(sol.lower_bound) else None),
        "nodes_explored": sol.nodes_explored,
        "separations": sol.separations,
        "pool_rows": sol.pool_rows,
        "wall_time": sol.wall_time,
    }
    if sol.selection is not None:
        payload["edges"] = [int(e) for e in sol.selection.edge_indices]
        payload["triangles"] = [int(t) for t in sol.selection.triangle_indices]
    print(json.dumps(payload, indent=2))
    if sol.status == "node_limit":
        return 2
    return 0 if sol.status == "optimal" else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="sctopo",
        description="Joint edge/triangle topology learning from signals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic signal bundle")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--p", type=float, default=0.6, help="edge probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prior", choices=EDGE_PRIORS, default="low_curl")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="score a persisted selection against truth")
    p.add_argument("--estimate", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("solve", help="solve a dumped problem instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--node-limit", type=int, default=blp.DEFAULT_NODE_LIMIT)
    p.set_defaults(func=_cmd_solve)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for the
        # solver limit here, so fold usage errors into "invalid input"
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

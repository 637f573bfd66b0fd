"""Span tracing from outside the library, and the per-layer metrics it yields.

The tracer replaces a function at the name its caller binds (for example
``sctopo.experiment.learn_joint``) with a wrapper that records one span per
call: name, start, end, parent span, the realization it belongs to, and a
few counts read off the arguments and the result.  Spans stay in memory
until the run ends.  Nothing inside ``sctopo`` is edited.

A span's self time is its duration minus the part of it covered by its
child spans; the self times of all spans of a pass add up to the time the
pass spent inside traced code.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    realization: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


@dataclass
class Realization:
    id: int
    label: str
    n0: int | None


class Tracer:
    """Records nested spans for one single-threaded caller."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.realizations = []
        self._stack = []

    def wrap(self, fn, name, observe=None, realization=None):
        """Wrapper of ``fn`` that records a span named ``name`` per call.

        ``observe(args, kwargs, result)`` returns counts to store on the
        span; ``realization(args, kwargs)`` returns ``(label, n0)`` when
        the call starts a new realization, else ``None``.
        """

        @wraps(fn)
        def traced(*args, **kwargs):
            if realization is not None:
                started = realization(args, kwargs)
                if started is not None:
                    self.realizations.append(
                        Realization(len(self.realizations), *started))
            span = Span(
                id=len(self.spans), name=name,
                parent=self._stack[-1].id if self._stack else None,
                realization=(self.realizations[-1].id
                             if self.realizations else None),
                start=self.clock())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if observe is not None:
                span.counts.update(observe(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, bindings):
        """Patch every binding for the duration of the block, then restore."""
        saved = []
        try:
            for b in bindings:
                module = importlib.import_module(b.module)
                original = getattr(module, b.attr)
                saved.append((module, b.attr, original))
                setattr(module, b.attr, self.wrap(
                    original, b.span, b.observe, b.realization))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self):
        return {
            "realizations": [r.__dict__ for r in self.realizations],
            "spans": [{**s.__dict__, "self": own}
                      for s, own in zip(self.spans, self_times(self.spans))],
        }


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out


@dataclass(frozen=True)
class Binding:
    module: str
    attr: str
    span: str
    observe: object = None
    realization: object = None


def _lp_counts(args, kwargs, res):
    A = args[1]
    return {"pivots": int(res.iterations), "rows": int(A.shape[0]),
            "cols": int(A.shape[1]), "infeasible": res.status == "infeasible",
            "warm": kwargs.get("basis") is not None}


def _complex_counts(args, kwargs, cx):
    return {"dense_mb": (cx.b1.nbytes + cx.b2.nbytes + cx.b2_plus.nbytes) / 1e6}


def _bundle_realization(args, kwargs):
    cfg = args[0]
    return f"n0={cfg.n0} {cfg.edge_prior} seed={cfg.seed}", cfg.n0


def _subsample_realization(args, kwargs):
    return f"n0={args[1]} subsample", int(args[1])


def _solve_realization(args, kwargs):
    argv = args[0]
    return f"solve {Path(argv[argv.index('--instance') + 1]).name}", None


_BUILD = "complexes.build_candidate_complex"

# Every name through which a workload reaches a layer.  ``workloads`` is
# the benchmark's own module, whose passes call the library through the
# names bound there.
BINDINGS = (
    Binding("workloads", "run_experiment", "experiment.run_experiment"),
    Binding("workloads", "write_report", "experiment.write_report"),
    Binding("workloads", "cli_main", "cli.main",
            realization=_solve_realization),
    Binding("sctopo.experiment", "build_candidate_complex", _BUILD,
            observe=_complex_counts),
    Binding("sctopo.experiment", "make_bundle", "datagen.make_bundle",
            realization=_bundle_realization),
    Binding("sctopo.experiment", "load_real_dataset",
            "datasets.load_real_dataset"),
    Binding("sctopo.experiment", "subsample_dataset",
            "datasets.subsample_dataset", realization=_subsample_realization),
    Binding("sctopo.experiment", "compute_costs", "smoothness.compute_costs"),
    Binding("sctopo.experiment", "learn_joint", "learners.learn_joint"),
    Binding("sctopo.experiment", "learn_hierarchical",
            "learners.learn_hierarchical"),
    Binding("sctopo.experiment", "learn_greedy", "learners.learn_greedy",
            observe=lambda a, k, out: {
                "iterations": out.diagnostics["iterations"]}),
    Binding("sctopo.experiment", "f1_scores", "metrics.f1_scores"),
    Binding("sctopo.experiment", "edge_signals_from_nodes",
            "metrics.edge_signals_from_nodes"),
    Binding("sctopo.datagen", "build_candidate_complex", _BUILD,
            observe=_complex_counts),
    Binding("sctopo.datagen", "filtered_signals", "datagen.filtered_signals"),
    Binding("sctopo.datasets", "build_candidate_complex", _BUILD,
            observe=_complex_counts),
    Binding("sctopo.blp", "solve", "blp.solve",
            observe=lambda a, k, sol: {"nodes": int(sol.nodes_explored)}),
    Binding("sctopo.blp", "read_instance", "blp.read_instance"),
    Binding("sctopo.blp", "solve_lp", "simplex_lp.solve_lp",
            observe=_lp_counts),
    Binding("sctopo.blp", "extend_binv_for_new_rows",
            "simplex_lp.extend_binv_for_new_rows"),
)

# (metric, unit) of every per-layer metric; the ones in PER_N0 repeat once
# per synthetic size of the trend grid, suffixed ``.n0_<k>``.
LAYER_METRICS = (
    ("complexes.build_calls", "count"), ("complexes.build_s", "s"),
    ("complexes.dense_mb", "MB"),
    ("datasets.load_s", "s"), ("datasets.subsample_s", "s"),
    ("datagen.make_bundle_s", "s"), ("datagen.filtered_signals_s", "s"),
    ("smoothness.compute_costs_s", "s"),
    ("metrics.f1_s", "s"), ("metrics.lift_s", "s"),
    ("simplex_lp.calls", "count"), ("simplex_lp.solve_s", "s"),
    ("simplex_lp.pivots", "count"), ("simplex_lp.pivot_us", "us"),
    ("simplex_lp.max_rows", "count"), ("simplex_lp.pool_mb", "MB"),
    ("simplex_lp.infeasible_calls", "count"),
    ("simplex_lp.extend_calls", "count"),
    ("simplex_lp.cold_restarts", "count"),
    ("blp.solve_s", "s"), ("blp.self_s", "s"), ("blp.nodes", "count"),
    ("blp.rows_generated", "count"), ("blp.read_instance_s", "s"),
    ("learners.joint_s", "s"), ("learners.joint_self_s", "s"),
    ("learners.hierarchical_s", "s"), ("learners.greedy_s", "s"),
    ("learners.greedy_iterations", "count"),
    ("experiment.self_s", "s"), ("experiment.write_report_s", "s"),
    ("cli.self_s", "s"),
    ("trace.self_sum_s", "s"), ("trace.spans", "count"),
)
PER_N0 = ("learners.joint_s", "simplex_lp.solve_s", "simplex_lp.pivots",
          "simplex_lp.max_rows", "simplex_lp.pool_mb", "blp.nodes")


def layer_metrics(spans, selfs):
    """Per-layer totals of one traced pass, keyed as in ``LAYER_METRICS``."""
    by_name = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, own))

    def total(name):
        return sum(s.duration for s, _ in by_name.get(name, ()))

    def own(name):
        return sum(o for _, o in by_name.get(name, ()))

    def counts(name, key):
        return [s.counts[key] for s, _ in by_name.get(name, ())]

    lp = [s for s, _ in by_name.get("simplex_lp.solve_lp", ())]
    pivots = sum(s.counts["pivots"] for s in lp)
    lp_s = total("simplex_lp.solve_lp")
    rows_by_solve = {}
    for s in lp:
        rows_by_solve[s.parent] = max(rows_by_solve.get(s.parent, 0),
                                      s.counts["rows"])
    # a warm solve that reports infeasible is retried cold at once
    cold = sum(1 for prev, cur in zip(lp, lp[1:])
               if prev.parent == cur.parent and prev.counts["warm"]
               and prev.counts["infeasible"] and not cur.counts["warm"])
    return {
        "complexes.build_calls": len(by_name.get(_BUILD, ())),
        "complexes.build_s": total(_BUILD),
        "complexes.dense_mb": max(counts(_BUILD, "dense_mb"), default=0.0),
        "datasets.load_s": total("datasets.load_real_dataset"),
        "datasets.subsample_s": total("datasets.subsample_dataset"),
        "datagen.make_bundle_s": total("datagen.make_bundle"),
        "datagen.filtered_signals_s": total("datagen.filtered_signals"),
        "smoothness.compute_costs_s": total("smoothness.compute_costs"),
        "metrics.f1_s": total("metrics.f1_scores"),
        "metrics.lift_s": total("metrics.edge_signals_from_nodes"),
        "simplex_lp.calls": len(lp),
        "simplex_lp.solve_s": lp_s,
        "simplex_lp.pivots": pivots,
        "simplex_lp.pivot_us": lp_s / pivots * 1e6 if pivots else 0.0,
        "simplex_lp.max_rows": max((s.counts["rows"] for s in lp), default=0),
        "simplex_lp.pool_mb": max((s.counts["rows"] * s.counts["cols"] * 8
                                   for s in lp), default=0) / 1e6,
        "simplex_lp.infeasible_calls": sum(s.counts["infeasible"] for s in lp),
        "simplex_lp.extend_calls": len(
            by_name.get("simplex_lp.extend_binv_for_new_rows", ())),
        "simplex_lp.cold_restarts": cold,
        "blp.solve_s": total("blp.solve"),
        "blp.self_s": own("blp.solve"),
        "blp.nodes": sum(counts("blp.solve", "nodes")),
        # the pool starts with the two cardinality rows and only grows
        "blp.rows_generated": sum(rows - 2 for rows in rows_by_solve.values()),
        "blp.read_instance_s": total("blp.read_instance"),
        "learners.joint_s": total("learners.learn_joint"),
        "learners.joint_self_s": own("learners.learn_joint"),
        "learners.hierarchical_s": total("learners.learn_hierarchical"),
        "learners.greedy_s": total("learners.learn_greedy"),
        "learners.greedy_iterations": sum(
            counts("learners.learn_greedy", "iterations")),
        "experiment.self_s": own("experiment.run_experiment"),
        "experiment.write_report_s": total("experiment.write_report"),
        "cli.self_s": own("cli.main"),
        "trace.self_sum_s": sum(selfs),
        "trace.spans": len(spans),
    }


def pass_metrics(tracer, n0_values):
    """Layer metrics of the tracer's spans, plus ``PER_N0`` for each size."""
    selfs = self_times(tracer.spans)
    out = layer_metrics(tracer.spans, selfs)
    sizes = {r.id: r.n0 for r in tracer.realizations}
    for n0 in n0_values:
        keep = [i for i, s in enumerate(tracer.spans)
                if sizes.get(s.realization) == n0]
        sub = layer_metrics([tracer.spans[i] for i in keep],
                            [selfs[i] for i in keep])
        for key in PER_N0:
            out[f"{key}.n0_{n0}"] = sub[key]
    return out

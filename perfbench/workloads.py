"""The benchmark workloads and the correctness gate that checks them.

Each workload is a closed loop: one caller in one process runs a pass,
waits for it to finish, then runs the next.  ``setup`` builds the inputs
from the workload seed (timed as ``setup_s``), ``run_pass`` is the timed
unit, and ``check`` compares every pass against references computed after
timing has stopped: scipy's HiGHS ``milp`` for the joint objective, or
``oracle_enumerate`` on ``branch``.

The passes call the library through the names bound in this module, so
the tracer can wrap them here (see ``tracing.BINDINGS``).
"""

from __future__ import annotations

import io
import json
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

import sctopo.experiment
from sctopo.blp import build_joint_instance, oracle_enumerate, write_instance
from sctopo.cli import main as cli_main
from sctopo.complexes import build_candidate_complex
from sctopo.datasets import make_coauthorship_fixture, save_real_dataset
from sctopo.experiment import ExperimentConfig, run_experiment, write_report
from sctopo.smoothness import CostVectors

_GAP_TOL = 1e-6  # learn_joint's default relative gap
TREND_SIZES = (10, 15, 20)  # n0 values of the acceptance TREND grid
# real: a 60-author, 90-paper fixture, ten subsamples of 20 authors
REAL_AUTHORS, REAL_PAPERS, REAL_N0, REAL_SEEDS = 60, 90, 20, 10
# branch: near-uniform costs at n0=6, at least 6 edges and 4 triangles
BRANCH_N0, BRANCH_C1, BRANCH_C2 = 6, 6, 4


@dataclass
class PassResult:
    """What one pass produced: its exact-solve latencies, and for the gate."""

    joint_latencies: list
    data: object


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


@cache
def _faces(n0):
    """(n_triangles, 3) face edge ids, derived here without the library."""
    edge_id = {p: e for e, p in enumerate(combinations(range(n0), 2))}
    out = np.array([[edge_id[(i, j)], edge_id[(i, k)], edge_id[(j, k)]]
                    for i, j, k in combinations(range(n0), 3)], dtype=np.int64)
    out.flags.writeable = False
    return out


def inclusion_violations(n0, edges, triangles):
    s1 = np.zeros(n0 * (n0 - 1) // 2, dtype=bool)
    s1[list(edges)] = True
    return int((~s1[_faces(n0)[list(triangles)]]).sum())


def milp_objective(n0, h1, h2, c1, c2):
    """Joint optimum from scipy's HiGHS with the full inclusion row set."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    faces = _faces(n0)
    n1, n2 = h1.size, h2.size
    k = np.arange(3 * n2)
    rows = np.repeat(k, 2)
    cols = np.empty(6 * n2, dtype=np.int64)
    cols[0::2] = n1 + k // 3
    cols[1::2] = faces.ravel()
    vals = np.tile([1.0, -1.0], 3 * n2)
    inclusion = coo_matrix((vals, (rows, cols)), shape=(3 * n2, n1 + n2))
    floors = np.zeros((2, n1 + n2))
    floors[0, :n1] = 1.0
    floors[1, n1:] = 1.0
    res = milp(np.concatenate([h1, h2]),
               constraints=[LinearConstraint(inclusion, -np.inf, 0.0),
                            LinearConstraint(floors, [c1, c2], np.inf)],
               integrality=np.ones(n1 + n2), bounds=Bounds(0.0, 1.0),
               options={"mip_rel_gap": 1e-9})
    if not res.success:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return float(res.fun)


@dataclass
class JointCall:
    n0: int
    h1: np.ndarray
    h2: np.ndarray
    c1: int
    c2: int
    objective: float
    status: str
    edges: list
    triangles: list


def _joint_call(cx, costs, c1, c2, out):
    sel = out.selection
    return JointCall(cx.n0, costs.h1, costs.h2, int(c1), int(c2),
                     out.objective, out.diagnostics.get("status", ""),
                     [int(e) for e in sel.edge_indices],
                     [int(t) for t in sel.triangle_indices])


def check_joint(calls, references, verdict, where):
    """One gate operation per joint solve: status, feasibility, optimum."""
    for i, (call, ref) in enumerate(zip(calls, references)):
        own = float(call.h1[call.edges].sum() + call.h2[call.triangles].sum())
        ok = (call.status == "optimal"
              and len(call.edges) >= call.c1
              and len(call.triangles) >= call.c2
              and not inclusion_violations(call.n0, call.edges, call.triangles)
              and abs(own - call.objective) <= 1e-9 * max(1.0, abs(own))
              and abs(call.objective - ref) <= _GAP_TOL * max(1.0, abs(ref)))
        verdict.record(ok, f"{where} joint solve {i}: objective "
                           f"{call.objective!r}, reference {ref!r}, "
                           f"status {call.status}")


class _Probe:
    """Watches one ``run_experiment`` call from the names it binds.

    Each ``learn_joint`` call is timed, and its inputs and answer are kept
    for the gate.
    """

    def __enter__(self):
        self.calls, self.latencies = [], []
        self._joint = joint = sctopo.experiment.learn_joint

        def timed(cx, costs, c1, c2, **kwargs):
            t0 = time.perf_counter()
            out = joint(cx, costs, c1, c2, **kwargs)
            self.latencies.append(time.perf_counter() - t0)
            self.calls.append(_joint_call(cx, costs, c1, c2, out))
            return out

        sctopo.experiment.learn_joint = timed
        return self

    def __exit__(self, *exc):
        sctopo.experiment.learn_joint = self._joint


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# Warm-up inputs are fixed, so that setup_s does not vary with the seed.
_WARM_UP_SEED = 10**6


def _warm_up(n0_values, prior):
    """One synthetic realization per size, through every synthetic layer."""
    run_experiment(ExperimentConfig(n0_values=n0_values,
                                    seeds=(_WARM_UP_SEED,), priors=(prior,)))


class ExperimentWorkload:
    """A ``run_experiment`` + ``write_report`` pass over one config."""

    def __init__(self, seed, n0_values, priors, n_seeds):
        self.seed = seed
        self.n0_values = tuple(n0_values)
        self.priors = tuple(priors)
        self.seeds = tuple(range(seed * n_seeds, (seed + 1) * n_seeds))

    def config(self):
        raise NotImplementedError

    def expected_records(self):
        return len(self.n0_values) * len(self.priors) * len(self.seeds) * 3

    def setup(self, workdir):
        self.out = _fresh(workdir / "reports")
        _warm_up(self.n0_values, self.priors[0])

    def run_pass(self, index):
        with _Probe() as probe:
            report = run_experiment(self.config())
        _, csv_path = write_report(report, self.out / f"pass{index}")
        return PassResult(probe.latencies,
                          (report.records, csv_path.read_bytes(), probe.calls))

    def check(self, passes):
        verdict = Verdict()
        first = next((p for p in passes if p is not None), None)
        _, csv0, calls0 = first.data if first else (None, None, [])
        references = [milp_objective(c.n0, c.h1, c.h2, c.c1, c.c2)
                      for c in calls0]
        for index, p in enumerate(passes):
            where = f"pass {index}"
            if p is None:
                for _ in range(self.expected_records() + 2):
                    verdict.record(False, f"{where} raised")
                continue
            records, csv, calls = p.data
            verdict.record(csv == csv0, f"{where}: results.csv differs from pass 0")
            verdict.record(len(records) == self.expected_records(),
                           f"{where}: {len(records)} records")
            same_inputs = len(calls) == len(calls0) and all(
                np.array_equal(a.h1, b.h1) and np.array_equal(a.h2, b.h2)
                for a, b in zip(calls, calls0))
            if not same_inputs:
                verdict.record(False, f"{where}: joint inputs differ from pass 0")
                continue
            check_joint(calls, references, verdict, where)
            for r in records:
                if r["method"] == "joint":
                    continue  # counted by check_joint
                sel = r["selection"]
                ok = (r["method"] == "greedy" or inclusion_violations(
                    r["n0"], sel["edges"], sel["triangles"]) == 0)
                verdict.record(ok, f"{where}: {r['method']} n0={r['n0']} "
                                   f"seed={r['seed']} violates inclusion")
        return verdict


class Trend(ExperimentWorkload):
    """The acceptance TREND grid: 3 sizes x 2 priors x 10 seeds x 3 methods."""

    name = "trend"

    def __init__(self, seed, n0_values=TREND_SIZES,
                 priors=("low_curl", "similarity"), n_seeds=10):
        super().__init__(seed, n0_values, priors, n_seeds)

    def config(self):
        return ExperimentConfig(n0_values=self.n0_values, seeds=self.seeds,
                                priors=self.priors)


class Real(ExperimentWorkload):
    """Real mode on a saved 60-author co-authorship fixture, n0=20 subsamples."""

    name = "real"

    def __init__(self, seed):
        super().__init__(seed, (REAL_N0,), ("similarity",), REAL_SEEDS)

    def setup(self, workdir):
        super().setup(workdir)
        ds = make_coauthorship_fixture(n_authors=REAL_AUTHORS,
                                       n_papers=REAL_PAPERS, keyword_dim=40,
                                       seed=self.seed)
        self.dataset = save_real_dataset(ds, _fresh(workdir / "dataset"))

    def config(self):
        return ExperimentConfig(mode="real", dataset_path=str(self.dataset),
                                n0_values=self.n0_values, seeds=self.seeds,
                                priors=self.priors)


class Branch:
    """Near-uniform costs whose LP roots are fractional, solved via the CLI."""

    name = "branch"

    def __init__(self, seed, count=256):
        self.seed, self.count = seed, count

    def _write(self, cx, rng, path):
        costs = CostVectors(h1=1.0 + 0.001 * rng.random(cx.n_edges),
                            h2=0.1 + 0.001 * rng.random(cx.n_triangles),
                            h2_kind="curl")
        write_instance(build_joint_instance(cx, costs, BRANCH_C1, BRANCH_C2),
                       path)
        return costs, str(path)

    def setup(self, workdir):
        cx = build_candidate_complex(BRANCH_N0)
        folder = _fresh(workdir / "instances")
        self.costs, self.paths = [], []
        for i in range(self.count):
            rng = np.random.default_rng([self.seed, i])
            costs, path = self._write(cx, rng, folder / f"instance-{i:04d}.txt")
            self.costs.append(costs)
            self.paths.append(path)
        for i in range(8):
            rng = np.random.default_rng([_WARM_UP_SEED, i])
            self._solve(self._write(cx, rng, folder / f"warm-up-{i}.txt")[1])

    @staticmethod
    def _solve(path):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["solve", "--instance", path])
        return code, buf.getvalue()

    def run_pass(self, index):
        latencies, outputs = [], []
        for path in self.paths:
            t0 = time.perf_counter()
            outputs.append(self._solve(path))
            latencies.append(time.perf_counter() - t0)
        return PassResult(latencies, outputs)

    def check(self, passes):
        verdict = Verdict()
        cx = build_candidate_complex(BRANCH_N0)
        oracle = [oracle_enumerate(cx, costs, BRANCH_C1, BRANCH_C2)
                  for costs in self.costs]
        for index, p in enumerate(passes):
            if p is None:
                for _ in range(self.count):
                    verdict.record(False, f"pass {index} raised")
                continue
            for i, ((code, text), want) in enumerate(zip(p.data, oracle)):
                try:
                    got = json.loads(text)
                except ValueError:
                    got = {}
                ok = (code == 0 and got.get("status") == "optimal"
                      and got.get("objective") is not None
                      and abs(got["objective"] - want.objective)
                      <= 1e-9 * max(1.0, abs(want.objective))
                      and got.get("edges") == [int(e) for e in
                                               want.selection.edge_indices]
                      and got.get("triangles") == [int(t) for t in
                                                   want.selection.triangle_indices])
                verdict.record(ok, f"pass {index} instance {i}: exit {code}, "
                                   f"got {got.get('objective')!r}, oracle "
                                   f"{want.objective!r}")
        return verdict


WORKLOADS = {w.name: w for w in (Trend, Real, Branch)}

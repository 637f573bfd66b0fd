"""Three topology learners over one shared objective h1 @ s1 + h2 @ s2.

* ``learn_joint`` solves the binary program exactly (edges and triangles
  coupled through the inclusion constraint).
* ``learn_hierarchical`` commits to edges first, then picks triangles
  among those whose three faces were already selected.
* ``learn_greedy`` relaxes inclusion to a penalty ``gamma`` per missing
  face and alternates exact coordinate minimization between s2 and s1.
  Its output may violate inclusion; the violation count is reported.

``learn_hierarchical`` and ``learn_greedy`` break ties by ascending
simplex index.  ``learn_joint`` returns an optimum whose edges break ties
the same way, but among tied triangle sets not necessarily the one with
the lowest indices.  All three reject, with ``ValueError``, costs that are
not sized for the complex, not finite or negative (``blp._check_costs``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import blp
from .complexes import (Selection, check_count, check_real, cheapest,
                        feasible_triangles, validate_inclusion)

GREEDY_INITS = ("ones", "hierarchical")  # starting s1 choices of learn_greedy


@dataclass
class LearnerOutput:
    selection: Selection
    objective: float  # h1 @ s1 + h2 @ s2, comparable across methods
    method: str  # "joint" | "hierarchical" | "greedy"
    diagnostics: dict


def _objective(costs, s1, s2):
    return float(costs.h1 @ s1 + costs.h2 @ s2)


def _checked_inputs(cx, costs, c1, c2):
    """The floors as ints, after the checks the baselines share:
    ``ValueError`` unless the costs pass ``blp._check_costs`` and each
    floor is an integer (not a bool) from 0 to its candidate count."""
    c1, c2 = blp._check_floors(c1, c2)
    blp._check_costs(cx, costs)
    if c1 > cx.n_edges or c2 > cx.n_triangles:
        raise ValueError("cardinality floors outside the candidate ranges")
    return c1, c2


def learn_hierarchical(cx, costs, c1, c2):
    """Edges first, triangles second, never revisiting the edge choice.

    Stage 1 selects the c1 cheapest edges, which is exactly optimal for
    nonnegative costs.  Stage 2 selects the c2 cheapest triangles among
    those feasible under stage 1; when fewer than c2 are feasible the
    triangle floor is relaxed and every feasible triangle is taken, with
    the relaxed-cardinality flag raised in the diagnostics.
    """
    return _hierarchical(cx, costs, *_checked_inputs(cx, costs, c1, c2))


def _hierarchical(cx, costs, c1, c2):
    """``learn_hierarchical`` on inputs already checked, for the warm start
    of ``learn_joint`` and the start of ``learn_greedy``."""
    t0 = time.perf_counter()
    s1 = np.zeros(cx.n_edges, dtype=np.int8)
    s1[cheapest(c1, costs.h1)] = 1

    feas = feasible_triangles(cx, s1)
    relaxed = feas.size < c2
    take = feas.size if relaxed else c2
    s2 = np.zeros(cx.n_triangles, dtype=np.int8)
    # feas ascends, so its positions break ties as its indices do
    s2[feas[cheapest(take, costs.h2[feas])]] = 1

    sel = Selection(s1=s1, s2=s2)
    return LearnerOutput(
        selection=sel,
        objective=_objective(costs, s1, s2),
        method="hierarchical",
        diagnostics={
            "feasible_triangles": int(feas.size),
            "relaxed_cardinality": bool(relaxed),
            "wall_time": time.perf_counter() - t0,
        },
    )


def learn_joint(cx, costs, c1, c2, node_limit=blp.DEFAULT_NODE_LIMIT):
    """Exact joint optimum via branch and bound.

    The hierarchical triangles prime the incumbent when they meet the
    floor ``c2``; their completed edges are the hierarchical edges, so this
    tightens pruning without affecting exactness.  Negative costs raise
    ``ValueError``.  A ``node_limit`` exhaustion is not an error: the
    incumbent is returned and flagged through ``diagnostics["status"]``.
    """
    instance = blp.build_joint_instance(cx, costs, c1, c2)
    warm = _hierarchical(cx, costs, min(instance.c1, cx.n_edges),
                         min(instance.c2, cx.n_triangles)).selection
    sol = blp.solve(instance, node_limit=node_limit, warm_start=warm)
    if sol.selection is None:
        raise ValueError(f"no selection satisfies the floors (status {sol.status})")
    return LearnerOutput(
        selection=sol.selection,
        objective=sol.objective,
        method="joint",
        diagnostics={
            "status": sol.status,
            "nodes_explored": sol.nodes_explored,
            "lower_bound": sol.lower_bound,
            "separations": sol.separations,
            "pool_rows": sol.pool_rows,
            "wall_time": sol.wall_time,
        },
    )


def default_gamma(costs):
    return 10.0 * (1.0 + float(costs.h2.max(initial=0.0)))


def learn_greedy(cx, costs, c1, c2, gamma=None, max_iter=20, init="ones"):
    """Alternating minimization of the penalized objective

        sum(s1) + sum(s2) + h1 @ s1 + h2 @ s2 + gamma * (1 - s1) @ B2plus @ s2

    over binary vectors with the two cardinality floors.  Both half-steps
    are exact: the s2-step takes the c2 triangles with smallest
    ``h2[t] + gamma * (faces of t missing from s1)``; the s1-step takes
    every edge whose coverage savings ``gamma * cov`` beat its activation
    cost ``1 + h1[e]`` and fills up to c1 by smallest
    ``1 + h1[e] - gamma * cov``.  Stops when the selection pair repeats
    or after ``max_iter`` rounds, an integer (not a bool) at least 1.
    """
    t0 = time.perf_counter()
    c1, c2 = _checked_inputs(cx, costs, c1, c2)
    if check_count(max_iter, "max_iter") < 1:
        raise ValueError("max_iter must be at least 1")
    gamma = check_real(default_gamma(costs) if gamma is None else gamma,
                       "gamma")

    h1, h2 = costs.h1, costs.h2
    n1, n2 = cx.n_edges, cx.n_triangles
    tri_edges = cx.triangle_edges

    if init == "ones":
        s1 = np.ones(n1, dtype=np.int8)
    elif init == "hierarchical":
        s1 = _hierarchical(cx, costs, c1, c2).selection.s1.copy()
    else:
        raise ValueError(f"unknown init {init!r}")

    def missing(s1v):  # faces of each triangle not selected in s1v
        return 3 - s1v[tri_edges].sum(axis=1)

    def penalized(s1v, s2v):
        return float(s1v.sum() + s2v.sum() + h1 @ s1v + h2 @ s2v
                     + gamma * float(missing(s1v) @ s2v))

    trace = []
    seen = set()
    s2 = np.zeros(n2, dtype=np.int8)
    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        # s2-step: penalty for faces currently missing from s1
        s2 = np.zeros(n2, dtype=np.int8)
        s2[cheapest(c2, h2 + gamma * missing(s1))] = 1
        trace.append(penalized(s1, s2))

        # s1-step: coverage counts from the fresh s2
        cov = np.bincount(tri_edges[s2 == 1].ravel(), minlength=n1)
        psi = 1.0 + h1 - gamma * cov
        s1_new = (psi < 0.0).astype(np.int8)
        shortfall = c1 - int(s1_new.sum())
        if shortfall > 0:
            s1_new[cheapest(shortfall, psi, exclude=s1_new == 1)] = 1
        s1 = s1_new
        trace.append(penalized(s1, s2))

        state = (s1.tobytes(), s2.tobytes())
        if state in seen:
            converged = True
            break
        seen.add(state)

    sel = Selection(s1=s1, s2=s2)
    return LearnerOutput(
        selection=sel,
        objective=_objective(costs, s1, s2),
        method="greedy",
        diagnostics={
            "gamma": gamma,
            "init": init,
            "iterations": iterations,
            "converged": converged,
            "objective_trace": trace,
            "inclusion_violations": len(validate_inclusion(cx, sel)),
            "wall_time": time.perf_counter() - t0,
        },
    )

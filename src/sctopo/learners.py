"""Three topology learners over one shared objective h1 @ s1 + h2 @ s2.

* ``learn_joint`` solves the binary program exactly (edges and triangles
  coupled through the inclusion constraint).
* ``learn_hierarchical`` commits to edges first, then picks triangles
  among those whose three faces were already selected.
* ``learn_greedy`` relaxes inclusion to a penalty ``gamma`` per missing
  face and alternates exact coordinate minimization between s2 and s1.
  Its output may violate inclusion; the violation count is reported.

``learn_hierarchical`` and ``learn_greedy`` break ties by ascending
simplex index.  ``learn_joint`` returns an optimum, but among tied optima
not necessarily the one with the lowest indices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import blp
from .complexes import Selection, validate_inclusion


@dataclass
class LearnerOutput:
    selection: Selection
    objective: float  # h1 @ s1 + h2 @ s2, comparable across methods
    method: str  # "joint" | "hierarchical" | "greedy"
    diagnostics: dict


def feasible_triangles(cx, s1):
    """Indices of triangles whose three faces are all selected in s1."""
    s1 = np.asarray(s1)
    if s1.size != cx.n_edges:
        raise ValueError("s1 length does not match the candidate complex")
    return np.flatnonzero(np.all(s1[cx.triangle_edges] == 1, axis=1))


def _cheapest(count, values, exclude=None):
    """First ``count`` indices by (value, index); optionally skip a mask."""
    order = np.lexsort((np.arange(values.size), values))
    if exclude is not None:
        order = order[~exclude[order]]
    return order[:count]


def _objective(costs, s1, s2):
    return float(costs.h1 @ s1 + costs.h2 @ s2)


def learn_hierarchical(cx, costs, c1, c2):
    """Edges first, triangles second, never revisiting the edge choice.

    Stage 1 selects the c1 cheapest edges, which is exactly optimal for
    nonnegative costs.  Stage 2 selects the c2 cheapest triangles among
    those feasible under stage 1; when fewer than c2 are feasible the
    triangle floor is relaxed and every feasible triangle is taken, with
    the relaxed-cardinality flag raised in the diagnostics.
    """
    t0 = time.perf_counter()
    c1, c2 = int(c1), int(c2)
    if not 0 <= c1 <= cx.n_edges or not 0 <= c2 <= cx.n_triangles:
        raise ValueError("cardinality floors outside the candidate ranges")
    s1 = np.zeros(cx.n_edges, dtype=np.int8)
    s1[_cheapest(c1, costs.h1)] = 1

    feas = feasible_triangles(cx, s1)
    relaxed = feas.size < c2
    take = feas.size if relaxed else c2
    order = np.lexsort((feas, costs.h2[feas]))
    s2 = np.zeros(cx.n_triangles, dtype=np.int8)
    s2[feas[order[:take]]] = 1

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


def learn_joint(cx, costs, c1, c2, node_limit=10_000_000):
    """Exact joint optimum via branch and bound.

    The hierarchical solution primes the incumbent when it happens to be
    feasible, which tightens pruning without affecting exactness.  A
    ``node_limit`` exhaustion is not an error: the incumbent is returned
    and flagged through ``diagnostics["status"]``.
    """
    instance = blp.build_joint_instance(cx, costs, c1, c2)
    warm = learn_hierarchical(cx, costs, min(c1, cx.n_edges),
                              min(c2, cx.n_triangles)).selection
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
    ``1 + h1[e] - gamma * cov``.  Stops when the selection pair repeats.
    """
    t0 = time.perf_counter()
    c1, c2 = int(c1), int(c2)
    if not 0 <= c1 <= cx.n_edges or not 0 <= c2 <= cx.n_triangles:
        raise ValueError("cardinality floors outside the candidate ranges")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if gamma is None:
        gamma = default_gamma(costs)
    gamma = float(gamma)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")

    h1, h2 = costs.h1, costs.h2
    n1, n2 = cx.n_edges, cx.n_triangles
    tri_edges = cx.triangle_edges

    if init == "ones":
        s1 = np.ones(n1, dtype=np.int8)
    elif init == "hierarchical":
        s1 = learn_hierarchical(cx, costs, c1, c2).selection.s1.copy()
    else:
        raise ValueError(f"unknown init {init!r}")

    def penalized(s1v, s2v):
        missing = (1 - s1v)[tri_edges].sum(axis=1)
        return float(s1v.sum() + s2v.sum() + h1 @ s1v + h2 @ s2v
                     + gamma * float(missing @ s2v))

    trace = []
    seen = set()
    s2 = np.zeros(n2, dtype=np.int8)
    converged = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        # s2-step: penalty for faces currently missing from s1
        miss = 3 - s1[tri_edges].sum(axis=1)
        s2 = np.zeros(n2, dtype=np.int8)
        s2[_cheapest(c2, h2 + gamma * miss)] = 1
        trace.append(penalized(s1, s2))

        # s1-step: coverage counts from the fresh s2
        cov = np.bincount(tri_edges[s2 == 1].ravel(), minlength=n1)
        psi = 1.0 + h1 - gamma * cov
        s1_new = (psi < 0.0).astype(np.int8)
        shortfall = c1 - int(s1_new.sum())
        if shortfall > 0:
            s1_new[_cheapest(shortfall, psi, exclude=s1_new == 1)] = 1
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

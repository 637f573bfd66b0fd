"""The search's contract tests, run again with HiGHS solving every node LP.

``blp._solve_node`` is the one door between branch and bound and its LP
engine.  Here a test-only node solver takes its place: scipy's
``linprog`` (HiGHS) on the two floors and all ``3 * n_triangles``
inclusion rows up front, with the fixings as bounds.  It shares no code
with :mod:`sctopo.simplex_lp` and ignores the warm start, the cutoff and
the row pool.  The tests imported below run unchanged against it, so what
they check is the search, not one engine.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix
from test_blp import (  # collected again here, under the fixture below
    test_infeasible_floors,
    test_lp_bound_contracts,
    test_lp_bound_does_not_depend_on_cost_scale,
    test_node_limit_is_anytime,
    test_solution_satisfies_floors_and_inclusion,
    test_solve_is_deterministic,
    test_solve_matches_oracle_on_branching_instances,
    test_solve_matches_oracle_random_sweep,
    test_warm_start_rules,
    test_zero_floors_select_nothing,
)

from sctopo import blp


def _highs_node(pool, c, fixed, warm, cutoff=np.inf):
    """The node LP on every row, by HiGHS, as the fields of an LP result
    that the search reads; ``warm`` and ``cutoff`` are not read."""
    n1, n = pool.n1, pool.n
    n2 = n - n1
    k = np.arange(3 * n2)  # inclusion row s2[t] - s1[e] <= 0, t = k // 3
    rows = np.r_[np.zeros(n1), np.ones(n2), 2 + np.repeat(k, 2)]
    cols = np.r_[np.arange(n), np.column_stack(
        [n1 + k // 3, pool.tri_edges.ravel()]).ravel()]
    vals = np.r_[-np.ones(n), np.tile([1.0, -1.0], 3 * n2)]
    A = coo_matrix((vals, (rows, cols)), shape=(2 + 3 * n2, n))
    b = np.r_[pool.b[:2], np.zeros(3 * n2)]  # the floors: -sum <= -c
    lower = np.r_[np.zeros(n1), fixed == 1]
    upper = np.r_[np.ones(n1), fixed != 0]
    res = linprog(c, A_ub=A, b_ub=b, bounds=np.column_stack([lower, upper]),
                  method="highs")
    assert res.status == 0, res.message  # every node is feasible by count
    return SimpleNamespace(status="optimal", x=res.x, bound=float(res.fun))


@pytest.fixture(autouse=True)
def highs_node_lps(monkeypatch):
    monkeypatch.setattr(blp, "_solve_node", _highs_node)

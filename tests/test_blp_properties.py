"""Property tests of the branch-and-bound solver against the oracle.

Instances are drawn over ``n0`` 4-7, cost scales 1e-6 to 1e6, cost
vectors that are distinct, partly zero, or tied on a few levels, and
triangle floors ``c2`` either at most 3 or within 3 of ``n_triangles``,
where the count of triangles not fixed to 0 decides which children exist.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctopo.blp import build_joint_instance, lp_bound, oracle_enumerate, solve
from sctopo.complexes import build_candidate_complex, validate_inclusion
from sctopo.smoothness import CostVectors

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
_COST_KINDS = ("distinct", "zero", "tied")


def _costs(rng, size, kind, scale):
    if kind == "distinct":
        vals = rng.random(size)
    elif kind == "zero":
        vals = rng.random(size) * (rng.random(size) < 0.5)
    else:
        vals = rng.integers(0, 3, size).astype(float)
    return vals * scale


@st.composite
def instances(draw):
    n0 = draw(st.integers(4, 7))
    cx = build_candidate_complex(n0)
    kind = draw(st.sampled_from(_COST_KINDS))
    scale = 10.0 ** draw(st.integers(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = CostVectors(h1=_costs(rng, cx.n_edges, kind, scale),
                        h2=_costs(rng, cx.n_triangles, kind, scale),
                        h2_kind="curl")
    c1 = draw(st.integers(0, cx.n_edges))
    n2 = cx.n_triangles
    c2 = draw(st.one_of(st.integers(0, 3), st.integers(n2 - 3, n2)))
    return cx, costs, c1, c2, kind


def _tol(objective):
    # relative, so no cost scale loosens what counts as optimal
    return 2e-9 * abs(objective)


@_SETTINGS
@given(instances())
def test_solve_matches_oracle(case):
    cx, costs, c1, c2, kind = case
    got = solve(build_joint_instance(cx, costs, c1, c2))
    want = oracle_enumerate(cx, costs, c1, c2)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(want.objective, rel=1e-9,
                                          abs=_tol(want.objective))
    assert got.lower_bound <= got.objective
    sel = got.selection
    assert sel.n_selected_edges >= c1 and sel.n_selected_triangles >= c2
    assert validate_inclusion(cx, sel) == []
    if kind == "distinct":
        assert got.selection.same_as(want.selection)
    # edges complete the triangles by (cost, index), as in the oracle;
    # tied triangle sets may still differ
    if np.array_equal(got.selection.s2, want.selection.s2):
        assert np.array_equal(got.selection.s1, want.selection.s1)


def test_solve_breaks_edge_ties_toward_the_lowest_index():
    # triangle 2 with faces 1, 2, 5, plus edge 3 or 4 (both cost 0)
    cx = build_candidate_complex(4)
    costs = CostVectors(h1=np.array([2.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
                        h2=np.array([0.0, 0.0, 0.0, 2.0]), h2_kind="curl")
    got = solve(build_joint_instance(cx, costs, 4, 1))
    assert got.objective == 2.0
    assert got.selection.edge_indices.tolist() == [1, 2, 3, 5]
    assert got.selection.triangle_indices.tolist() == [2]
    assert got.selection.same_as(oracle_enumerate(cx, costs, 4, 1).selection)


@_SETTINGS
@given(instances(), st.data())
def test_lp_bound_is_below_the_optimum_and_grows_with_fixings(case, data):
    cx, costs, c1, c2, _ = case
    inst = build_joint_instance(cx, costs, c1, c2)
    opt = solve(inst)
    n2 = cx.n_triangles

    order = data.draw(st.permutations(range(n2)))
    k = data.draw(st.integers(1, 6))
    # fixings that keep the optimum feasible, or arbitrary ones
    agree = data.draw(st.booleans())
    flips = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    fixed = {}
    bound = lp_bound(inst)
    assert bound <= opt.objective + _tol(opt.objective)
    for t, flip in zip(order[:k], flips):
        fixed[t] = int(opt.selection.s2[t]) ^ (flip and not agree)
        tighter = lp_bound(inst, fixed_triangles=fixed)
        # infeasible exactly when too few triangles are not fixed to 0
        n_open = n2 - sum(v == 0 for v in fixed.values())
        assert (tighter == np.inf) == (n_open < c2)
        if bound == np.inf:
            assert tighter == np.inf  # infeasible stays infeasible
        else:
            assert tighter >= bound - _tol(bound)
        if agree:
            assert tighter <= opt.objective + _tol(opt.objective)
        bound = tighter

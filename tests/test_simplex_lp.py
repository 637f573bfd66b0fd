"""Cross-checks of the dual simplex against scipy.optimize.linprog.

scipy's HiGHS backend is an independent implementation, so agreement on
random bounded LPs is strong evidence the hand-rolled solver is right.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from sctopo import simplex_lp
from sctopo.simplex_lp import (
    BASIC,
    NB_LOWER,
    NB_UPPER,
    SparseRows,
    build_basis_matrix,
    extend_binv_for_new_rows,
    solve_lp,
)


def _random_lp(rng, n, m, nonneg_costs=True):
    A = rng.normal(size=(m, n))
    # right-hand side keeps the box center feasible often enough to mix
    # feasible and infeasible cases
    b = A @ (0.5 * np.ones(n)) + rng.normal(scale=0.5, size=m)
    c = rng.random(n) if nonneg_costs else rng.normal(size=n)
    lower = np.zeros(n)
    upper = np.ones(n)
    return c, A, b, lower, upper


def _scipy_solve(c, A, b, lower, upper):
    return linprog(c, A_ub=A, b_ub=b, bounds=list(zip(lower, upper)), method="highs")


def test_matches_scipy_on_random_boxes():
    rng = np.random.default_rng(7)
    n_feasible = 0
    for trial in range(120):
        n = int(rng.integers(2, 14))
        m = int(rng.integers(1, 18))
        c, A, b, lower, upper = _random_lp(rng, n, m, nonneg_costs=bool(trial % 2))
        res = solve_lp(c, A, b, lower, upper)
        ref = _scipy_solve(c, A, b, lower, upper)
        if ref.status == 2:
            assert res.status == "infeasible", trial
        else:
            assert ref.status == 0
            assert res.status == "optimal", trial
            n_feasible += 1
            assert res.bound == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(A @ res.x <= b + 1e-7)
            assert np.all(res.x >= lower - 1e-9)
            assert np.all(res.x <= upper + 1e-9)
    assert n_feasible >= 40  # the generator must exercise the optimal path


def test_negative_costs_start_at_upper():
    # all costs negative: optimum pushes variables up against the box/rows
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 10))
        c = -rng.random(n)
        A = rng.normal(size=(m, n))
        b = A @ rng.random(n) + rng.random(m)
        res = solve_lp(c, A, b, np.zeros(n), np.ones(n))
        ref = _scipy_solve(c, A, b, np.zeros(n), np.ones(n))
        if ref.status == 2:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.bound == pytest.approx(ref.fun, abs=1e-7)


def test_fixed_variables_respected():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n, m = 8, 6
        c, A, b, lower, upper = _random_lp(rng, n, m)
        j = int(rng.integers(n))
        v = float(rng.integers(2))
        lower[j] = upper[j] = v
        res = solve_lp(c, A, b, lower, upper)
        ref = _scipy_solve(c, A, b, lower, upper)
        if ref.status == 2:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.x[j] == pytest.approx(v, abs=1e-9)
            assert res.bound == pytest.approx(ref.fun, abs=1e-7)


def test_warm_start_after_bound_change_matches_cold():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n, m = 10, 8
        c, A, b, lower, upper = _random_lp(rng, n, m)
        first = solve_lp(c, A, b, lower, upper)
        if first.status != "optimal":
            continue
        # branch: fix a variable and re-solve from the parent basis
        j = int(rng.integers(n))
        lower2, upper2 = lower.copy(), upper.copy()
        if rng.random() < 0.5:
            upper2[j] = 0.0
        else:
            lower2[j] = 1.0
        warm = solve_lp(c, A, b, lower2, upper2, warm=first)
        cold = solve_lp(c, A, b, lower2, upper2)
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert warm.bound == pytest.approx(cold.bound, abs=1e-7)
            # warm starts should not be slower than a cold start by much;
            # typically they take far fewer pivots
            assert warm.iterations <= cold.iterations + m


def test_row_extension_keeps_solving():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, m = 9, 5
        c, A, b, lower, upper = _random_lp(rng, n, m)
        first = solve_lp(c, A, b, lower, upper)
        if first.status != "optimal":
            continue
        extra = rng.normal(size=(2, n))
        b_extra = extra @ first.x - rng.random(2)  # cut off the old optimum
        A2 = np.vstack([A, extra])
        b2 = np.concatenate([b, b_extra])
        grown = extend_binv_for_new_rows(first, extra, n)
        assert grown.basis.tolist() == first.basis.tolist() + [n + m, n + m + 1]
        assert grown.vstat.tolist() == first.vstat.tolist() + [BASIC, BASIC]
        B = build_basis_matrix(A2, grown.basis)
        np.testing.assert_allclose(grown.binv @ B, np.eye(m + 2), atol=1e-9)
        warm = solve_lp(c, A2, b2, lower, upper, warm=grown)
        ref = _scipy_solve(c, A2, b2, lower, upper)
        if ref.status == 2:
            assert warm.status == "infeasible"
        else:
            assert warm.status == "optimal"
            assert warm.bound == pytest.approx(ref.fun, abs=1e-7)


def test_warm_state_that_misses_rows_is_rejected():
    # at entry: a warm basis from before two rows were appended
    rng = np.random.default_rng(5)
    c, A, b, lower, upper = _random_lp(rng, 6, 3)
    first = solve_lp(c, A, b, lower, upper)
    assert first.status == "optimal"
    extra = rng.normal(size=(2, 6))
    A2 = np.vstack([A, extra])
    b2 = np.concatenate([b, extra @ first.x - 1.0])
    with pytest.raises(ValueError, match=r"5 rows.* 3 entries.* 3 x 3"):
        solve_lp(c, A2, b2, lower, upper, warm=first)

    # at a continuation: ``separate`` grows the rows but not the result
    calls = []

    def unextended(res):
        calls.append(res)
        return A2, b2, res

    with pytest.raises(ValueError, match=r"5 rows.* 3 entries.* 3 x 3"):
        solve_lp(c, A, b, lower, upper, separate=unextended)
    assert len(calls) == 1
    # the same rows with the result extended go on to the optimum
    grown = solve_lp(c, A, b, lower, upper, separate=lambda res: (
        None if res.basis.size == 5
        else (A2, b2, extend_binv_for_new_rows(res, extra, 6))))
    assert _assert_matches_scipy(grown, c, A2, b2, lower, upper)


def test_rounds_that_outgrow_the_state_buffers_match_scipy():
    # separate hands back one to three more rows per round, so the
    # per-row and per-variable state, moved into buffers with room for
    # twice the rows at the first round, outgrows them several times
    # within the call; each result equals scipy's on all the rows, with
    # its basic values recomputed from its final basis
    rng = np.random.default_rng(29)
    n, m, k = 8, 2, 14
    pivoted = 0
    for _ in range(30):
        c, A, b, lower, upper = _random_lp(rng, n, m + k)
        b = A @ (0.5 * np.ones(n)) + rng.random(m + k)  # the center is feasible
        sizes, iterations = [], []

        def separate(res):
            old = res.basis.size
            sizes.append(old)
            iterations.append(res.iterations)
            if old == m + k:
                return None
            new = min(old + int(rng.integers(1, 4)), m + k)
            return (A[:new], b[:new],
                    extend_binv_for_new_rows(res, A[old:new], n))

        res = solve_lp(c, A[:m], b[:m], lower, upper, separate=separate)
        assert _assert_matches_scipy(res, c, A, b, lower, upper)
        assert sizes[-1] == m + k and len(sizes) > 5
        assert sizes == sorted(sizes)
        _assert_basic_values_from_basis(res, A, b)
        # rounds after which the LP pivoted on the grown rows
        pivoted += int(np.count_nonzero(np.diff(iterations)))
    assert pivoted > 30


def test_iteration_limit_bound_is_valid(monkeypatch):
    monkeypatch.setattr(simplex_lp, "_MAX_ITER", 2)
    rng = np.random.default_rng(13)
    for _ in range(20):
        n, m = 12, 10
        c, A, b, lower, upper = _random_lp(rng, n, m)
        ref = _scipy_solve(c, A, b, lower, upper)
        if ref.status != 0:
            continue
        short = solve_lp(c, A, b, lower, upper)
        if short.status == "iteration_limit":
            assert short.bound <= ref.fun + 1e-7


def test_cutoff_stops_between_the_cutoff_and_the_optimum(monkeypatch):
    rng = np.random.default_rng(19)
    stopped = 0
    for trial in range(80):
        n = int(rng.integers(3, 14))
        m = int(rng.integers(2, 16))
        c, A, b, lower, upper = _random_lp(rng, n, m, nonneg_costs=bool(trial % 2))
        full = solve_lp(c, A, b, lower, upper)
        if full.status != "optimal":
            continue
        z = full.bound - rng.random() * (1.0 + abs(full.bound))
        res = solve_lp(c, A, b, lower, upper, cutoff=z)
        assert res.status == "cutoff", trial
        assert z <= res.bound <= full.bound + 1e-9
        assert res.iterations <= full.iterations
        # the bound is the objective of the point the final basis gives
        assert res.bound == c @ res.x
        if res.iterations:
            # the objective tracked across pivots stops at the first
            # iterate that reaches the cutoff, not later
            stopped += 1
            with monkeypatch.context() as patch:
                patch.setattr(simplex_lp, "_MAX_ITER", res.iterations - 1)
                before = solve_lp(c, A, b, lower, upper)
            assert before.status == "iteration_limit"
            assert before.bound < z
    assert stopped >= 10


def test_cutoff_just_above_the_optimum_never_stops_early():
    rng = np.random.default_rng(20)
    n_checked = 0
    for trial in range(80):
        n = int(rng.integers(3, 14))
        m = int(rng.integers(2, 16))
        c, A, b, lower, upper = _random_lp(rng, n, m, nonneg_costs=bool(trial % 2))
        full = solve_lp(c, A, b, lower, upper)
        if full.status != "optimal":
            continue
        n_checked += 1
        res = solve_lp(c, A, b, lower, upper,
                       cutoff=full.bound + 1e-9 * (1.0 + abs(full.bound)))
        assert res.status == "optimal", trial
        np.testing.assert_array_equal(res.x, full.x)
        assert res.bound == full.bound
        assert res.iterations == full.iterations
    assert n_checked >= 30


def test_contradictory_bounds_are_infeasible():
    c = np.array([1.0, 1.0])
    A = np.array([[1.0, 1.0]])
    b = np.array([10.0])
    lower = np.array([0.0, 2.0])
    upper = np.array([1.0, 1.0])
    res = solve_lp(c, A, b, lower, upper)
    assert res.status == "infeasible"
    assert res.bound == np.inf


def test_fixed_marker_set_on_equal_bounds():
    # a fixed variable is a box of zero width: it sits at its value as a
    # nonbasic variable, and no pivot moves it
    c = np.array([1.0, 1.0])
    A = np.array([[1.0, 1.0]])
    b = np.array([5.0])
    lower = np.array([0.0, 1.0])
    upper = np.array([1.0, 1.0])
    res = solve_lp(c, A, b, lower, upper)
    assert res.status == "optimal"
    assert res.x.tolist() == [0.0, 1.0]
    assert 1 not in res.basis
    assert res.vstat[1] in (NB_LOWER, NB_UPPER)


def test_fixed_markers_follow_the_current_bounds(monkeypatch):
    # warm starts whose bounds fix variables the parent left basic or
    # nonbasic: each ends at its value, the bound matches a cold solve and
    # HiGHS, and a fixed variable out of the basis, from the start or after
    # leaving it, never enters.  The iterates are replayed by capping the
    # pivots at 0, 1, 2, ...
    rng = np.random.default_rng(9)
    n_checked = 0
    for trial in range(300):
        c, A, b, lower, upper = _random_lp(rng, 8, 5,
                                           nonneg_costs=bool(trial % 2))
        first = solve_lp(c, A, b, lower, upper)
        if first.status != "optimal":
            continue
        basic = first.basis[first.basis < 8]
        fixed = np.unique(np.r_[rng.choice(8, size=2, replace=False),
                                rng.choice(basic, size=min(2, basic.size),
                                           replace=False)])
        lower2, upper2 = lower.copy(), upper.copy()
        lower2[fixed] = upper2[fixed] = rng.integers(0, 2, size=fixed.size)
        res = solve_lp(c, A, b, lower2, upper2, warm=first)
        out = set(fixed) - set(first.basis)
        for k in range(res.iterations + 1):
            monkeypatch.setattr(simplex_lp, "_MAX_ITER", k)
            basis = set(solve_lp(c, A, b, lower2, upper2, warm=first).basis)
            assert not out & basis, (trial, k)
            out |= set(fixed) - basis
        monkeypatch.undo()
        ref = _scipy_solve(c, A, b, lower2, upper2)
        if ref.status == 2:
            assert res.status == "infeasible", trial
            continue
        assert res.status == "optimal", trial
        n_checked += 1
        assert res.bound == pytest.approx(ref.fun, abs=1e-7)
        assert res.bound == pytest.approx(
            solve_lp(c, A, b, lower2, upper2).bound, abs=1e-7)
        np.testing.assert_allclose(res.x[fixed], lower2[fixed], atol=1e-9)
    assert n_checked >= 100


def test_loosened_warm_start_is_rejected():
    # a warm start solved with a variable fixed, then given its whole box
    # back, may leave that variable at a bound its reduced cost does not
    # allow; such a start raises instead of returning a wrong optimum
    rng = np.random.default_rng(0)
    n_raised = n_checked = 0
    for trial in range(200):
        c, A, b, lower, upper = _random_lp(rng, 6, 4,
                                           nonneg_costs=bool(trial % 2))
        lower2, upper2 = lower.copy(), upper.copy()
        j = int(rng.integers(6))
        lower2[j] = upper2[j] = float(rng.integers(2))
        first = solve_lp(c, A, b, lower2, upper2)
        if first.status != "optimal":
            continue
        try:
            res = solve_lp(c, A, b, lower, upper, warm=first)
        except ValueError:
            n_raised += 1
            continue
        ref = _scipy_solve(c, A, b, lower, upper)
        assert ref.status == 0
        assert res.status == "optimal", trial
        assert res.bound == pytest.approx(ref.fun, abs=1e-7), trial
        n_checked += 1
    assert n_raised >= 10 and n_checked >= 10


def _assert_basic_values_from_basis(res, A, b):
    # an "optimal" x holds the basic values recomputed from the final basis
    # inverse, not the ones carried (and rounded) across pivots; A @ x is
    # summed over each row's entries in order, as the solver sums it
    n = A.shape[1]
    x_nb = np.concatenate([res.x, np.zeros(A.shape[0])])
    x_nb[res.basis] = 0.0
    xB = res.binv @ (b - SparseRows.of(A).matvec(x_nb[:n]))
    struct = res.basis < n
    np.testing.assert_array_equal(res.x[res.basis[struct]], xB[struct])
    # and, summed by numpy's dense product, the same up to rounding
    dense = res.binv @ (b - np.asarray(A) @ x_nb[:n])
    np.testing.assert_allclose(res.x[res.basis[struct]], dense[struct],
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("refresh_every", [1, 7])
def test_carried_values_match_scipy_at_any_refresh_interval(monkeypatch,
                                                            refresh_every):
    # refresh_every=1 recomputes x_B and the reduced costs after every
    # pivot; 7 carries them across several pivots between reinversions
    monkeypatch.setattr(simplex_lp, "_REFRESH_EVERY", refresh_every)
    rng = np.random.default_rng(17)
    n_checked = 0
    for trial in range(60):
        n = int(rng.integers(3, 14))
        m = int(rng.integers(2, 16))
        c, A, b, lower, upper = _random_lp(rng, n, m, nonneg_costs=bool(trial % 2))
        cold = solve_lp(c, A, b, lower, upper)
        ref = _scipy_solve(c, A, b, lower, upper)
        assert cold.status == ("infeasible" if ref.status == 2 else "optimal"), trial
        if cold.status != "optimal":
            continue
        n_checked += 1
        assert cold.bound == pytest.approx(ref.fun, abs=1e-7)
        _assert_basic_values_from_basis(cold, A, b)

        # warm: tighten one bound and restart from the optimal basis
        j = int(rng.integers(n))
        lower2, upper2 = lower.copy(), upper.copy()
        upper2[j] = lower2[j] = float(cold.x[j] < 0.5)
        warm = solve_lp(c, A, b, lower2, upper2, warm=cold)
        ref = _scipy_solve(c, A, b, lower2, upper2)
        assert warm.status == ("infeasible" if ref.status == 2 else "optimal")
        if warm.status == "optimal":
            assert warm.bound == pytest.approx(ref.fun, abs=1e-7)
            _assert_basic_values_from_basis(warm, A, b)

        # row extension: cut off the cold optimum, slacks enter basic
        extra = rng.normal(size=(2, n))
        A2 = np.vstack([A, extra])
        b2 = np.concatenate([b, extra @ cold.x - rng.random(2)])
        ext = solve_lp(c, A2, b2, lower, upper,
                       warm=extend_binv_for_new_rows(cold, extra, n))
        ref = _scipy_solve(c, A2, b2, lower, upper)
        assert ext.status == ("infeasible" if ref.status == 2 else "optimal")
        if ext.status == "optimal":
            assert ext.bound == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(A2 @ ext.x <= b2 + 1e-7)
            _assert_basic_values_from_basis(ext, A2, b2)
    assert n_checked >= 20


def _basis_matrix_loop(A, basis):
    m, n = A.shape
    B = np.zeros((m, m))
    for p, j in enumerate(basis):
        if j < n:
            B[:, p] = A[:, j]
        else:
            B[j - n, p] = 1.0
    return B


def test_column_is_the_dense_column_in_row_order():
    # read from the entries at each call, with no index by column; the
    # entering column sums binv.take(rows, 1) @ vals in row order
    rng = np.random.default_rng(17)
    empty = 0
    for _ in range(40):
        m, n = (int(v) for v in rng.integers(1, 12, size=2))
        D = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4)
        D[:, rng.random(n) < 0.2] = 0.0
        A = SparseRows.of(D)
        for q in range(n):
            rows, vals = A.column(q)
            want = D[:, q].nonzero()[0]
            assert rows.tolist() == want.tolist()
            np.testing.assert_array_equal(vals, D[want, q])
            empty += want.size == 0
    assert empty > 20


def test_matvec_from_a_row_on_matches_the_dense_rows():
    # the rows from first on, summed from their entries alone, equal the
    # dense product's, also where empty rows come before or after first
    rng = np.random.default_rng(23)
    empty = 0
    for _ in range(40):
        m, n = (int(v) for v in rng.integers(1, 12, size=2))
        D = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < 0.4)
        D[rng.random(m) < 0.3] = 0
        x = rng.integers(-3, 4, size=n).astype(float)
        A = SparseRows.of(D)
        for first in range(m + 1):
            np.testing.assert_array_equal(A.matvec(x, first), (D @ x)[first:])
        empty += int(np.count_nonzero(~D.any(axis=1)))
    assert empty > 20


def test_build_basis_matrix_matches_loop_reference():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        A = rng.normal(size=(m, n))
        basis = rng.choice(n + m, size=m, replace=False)
        np.testing.assert_array_equal(build_basis_matrix(A, basis),
                                      _basis_matrix_loop(A, basis))
    # all-slack and all-structural extremes
    A = rng.normal(size=(3, 5))
    for basis in (np.array([7, 5, 6]), np.array([4, 0, 2])):
        np.testing.assert_array_equal(build_basis_matrix(A, basis),
                                      _basis_matrix_loop(A, basis))


# --- bound-flipping (long-step) ratio test -------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_cardinality_row_takes_one_pivot_with_flips(n):
    # -sum(x) <= -k from the all-lower start: the cheapest k - 1 variables
    # flip to 1 and the k-th cheapest enters, so one pivot solves it
    rng = np.random.default_rng(n)
    c = rng.permutation(n) + 1.0
    cheapest = np.argsort(c)
    for k in range(1, n + 1):
        res = solve_lp(c, -np.ones((1, n)), np.array([-float(k)]),
                       np.zeros(n), np.ones(n))
        assert res.status == "optimal"
        assert res.iterations == 1
        want = np.zeros(n)
        want[cheapest[:k]] = 1.0
        np.testing.assert_array_equal(res.x, want)
        assert res.bound == float(c[cheapest[:k]].sum())
        assert res.basis.tolist() == [int(cheapest[k - 1])]
        assert sorted(np.flatnonzero(res.vstat == NB_UPPER)) == sorted(cheapest[:k - 1])


@pytest.mark.parametrize("n", [2, 5, 9])
def test_capacity_row_flips_down_in_one_pivot(n):
    # negative costs start every variable at 1; sum(x) <= n - k then drops
    # the k variables that gain least: k - 1 flip down and one enters
    rng = np.random.default_rng(100 + n)
    c = -(rng.permutation(n) + 1.0)
    dearest = np.argsort(-c)  # least negative first
    for k in range(1, n + 1):
        res = solve_lp(c, np.ones((1, n)), np.array([float(n - k)]),
                       np.zeros(n), np.ones(n))
        assert res.status == "optimal"
        assert res.iterations == 1
        want = np.ones(n)
        want[dearest[:k]] = 0.0
        np.testing.assert_array_equal(res.x, want)
        assert sorted(np.flatnonzero(res.vstat[:n] == NB_LOWER)) == sorted(dearest[:k - 1])


def _cardinality_lp(rng, n1, n2):
    """Joint-style LP: two cardinality floors plus random x2[t] <= x1[e] rows."""
    n = n1 + n2
    k = int(rng.integers(1, 2 * n2 + 1))
    A = np.zeros((2 + k, n))
    A[0, :n1] = A[1, n1:] = -1.0
    rows = np.arange(2, 2 + k)
    A[rows, n1 + rng.integers(n2, size=k)] = 1.0
    A[rows, rng.integers(n1, size=k)] = -1.0
    b = np.zeros(2 + k)
    b[:2] = -rng.integers(1, [n1 + 1, n2 + 1])
    c = rng.random(n) if rng.random() < 0.7 else rng.normal(size=n)
    return c, A, b, np.zeros(n), np.ones(n)


def _assert_matches_scipy(res, c, A, b, lower, upper):
    ref = _scipy_solve(c, A, b, lower, upper)
    if ref.status == 2:
        assert res.status == "infeasible"
        return False
    assert res.status == "optimal"
    assert res.bound == pytest.approx(ref.fun, abs=1e-7)
    assert np.all(A @ res.x <= b + 1e-7)
    assert np.all((res.x >= lower - 1e-9) & (res.x <= upper + 1e-9))
    return True


@pytest.mark.parametrize("bland_after", [0, 1000])
def test_long_step_matches_scipy_cold_and_warm(monkeypatch, bland_after):
    # bland_after=0 hands every pivot after a degenerate one to the plain
    # ratio test, so long and plain steps mix within one solve
    monkeypatch.setattr(simplex_lp, "_BLAND_AFTER", bland_after)
    rng = np.random.default_rng(41)
    n_optimal = n_warm = 0
    for trial in range(80):
        if trial % 2:
            c, A, b, lower, upper = _cardinality_lp(
                rng, int(rng.integers(2, 12)), int(rng.integers(1, 10)))
        else:
            c, A, b, lower, upper = _random_lp(
                rng, int(rng.integers(2, 14)), int(rng.integers(1, 12)),
                nonneg_costs=bool(trial % 4))
        cold = solve_lp(c, A, b, lower, upper)
        if not _assert_matches_scipy(cold, c, A, b, lower, upper):
            continue
        n_optimal += 1
        # warm: fix a variable at 1 to 0 and tighten the rows, so the
        # restart must move variables down from their upper bounds
        at_one = np.flatnonzero(cold.x > 0.5)
        lower2, upper2 = lower.copy(), upper.copy()
        if at_one.size:
            upper2[rng.choice(at_one)] = 0.0
        b2 = b - rng.random(b.size) * (rng.random(b.size) < 0.5)
        warm = solve_lp(c, A, b2, lower2, upper2, warm=cold)
        n_warm += _assert_matches_scipy(warm, c, A, b2, lower2, upper2)
    assert n_optimal >= 40 and n_warm >= 20


def test_warm_start_from_upper_bounds_flips_down():
    # all costs negative: the all-slack basis puts every variable at 1;
    # tightening a capacity row afterwards must move several back down
    rng = np.random.default_rng(43)
    for _ in range(40):
        n, m = int(rng.integers(3, 12)), int(rng.integers(1, 5))
        c = -rng.random(n)
        A = rng.random((m, n))
        b = A.sum(axis=1) * rng.uniform(0.5, 1.2, size=m)
        lower, upper = np.zeros(n), np.ones(n)
        first = solve_lp(c, A, b, lower, upper)
        assert _assert_matches_scipy(first, c, A, b, lower, upper)
        b2 = b * rng.uniform(0.3, 0.9, size=m)
        warm = solve_lp(c, A, b2, lower, upper, warm=first)
        assert _assert_matches_scipy(warm, c, A, b2, lower, upper)


def test_iteration_limit_after_a_long_step_is_a_valid_bound(monkeypatch):
    monkeypatch.setattr(simplex_lp, "_MAX_ITER", 1)
    rng = np.random.default_rng(47)
    n_stopped = 0
    for _ in range(60):
        c, A, b, lower, upper = _cardinality_lp(rng, int(rng.integers(4, 12)),
                                                int(rng.integers(3, 10)))
        ref = _scipy_solve(c, A, b, lower, upper)
        if ref.status != 0:
            continue
        short = solve_lp(c, A, b, lower, upper)
        if short.status == "iteration_limit":
            n_stopped += 1
            assert short.iterations == 1
            assert short.bound <= ref.fun + 1e-9
    assert n_stopped >= 10

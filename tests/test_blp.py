"""Branch-and-bound solver vs. the enumeration oracle, plus instance I/O."""

import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sctopo import blp, simplex_lp
from sctopo.blp import (
    _RowPool,
    build_joint_instance,
    lp_bound,
    oracle_enumerate,
    read_instance,
    solve,
    write_instance,
)
from sctopo.complexes import Selection, build_candidate_complex
from sctopo.datagen import SynthConfig, make_bundle, stage_rng
from sctopo.datasets import make_coauthorship_fixture, subsample_dataset
from sctopo.experiment import PRIOR_TO_KIND
from sctopo.metrics import edge_signals_from_nodes
from sctopo.smoothness import CostVectors, compute_costs
from test_simplex_lp import build_basis_matrix


def _random_costs(rng, cx, scale=1.0):
    return CostVectors(h1=rng.random(cx.n_edges) * scale,
                       h2=rng.random(cx.n_triangles) * scale,
                       h2_kind="curl")


def _near_uniform_costs(rng, cx):
    # nearly flat costs force fractional LP roots, so branching is exercised
    return CostVectors(h1=1.0 + 0.001 * rng.random(cx.n_edges),
                       h2=0.1 + 0.001 * rng.random(cx.n_triangles),
                       h2_kind="curl")


def test_solve_matches_oracle_random_sweep():
    rng = np.random.default_rng(314)
    for _ in range(40):
        cx = build_candidate_complex(int(rng.integers(5, 8)))
        costs = _random_costs(rng, cx, scale=float(rng.choice([0.1, 1.0, 20.0])))
        c1 = int(rng.integers(0, cx.n_edges + 1))
        c2 = int(rng.integers(0, 5))
        inst = build_joint_instance(cx, costs, c1, c2)
        got = solve(inst)
        want = oracle_enumerate(cx, costs, c1, c2)
        assert got.status == "optimal"
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-12)
        assert got.selection.same_as(want.selection)
        # a finished run certifies its own optimum
        assert got.objective - got.lower_bound <= 1e-6 * max(1.0, got.objective)


def test_solve_matches_oracle_on_branching_instances():
    rng = np.random.default_rng(4)
    cx = build_candidate_complex(6)
    costs = _near_uniform_costs(rng, cx)
    inst = build_joint_instance(cx, costs, 6, 3)
    got = solve(inst)
    want = oracle_enumerate(cx, costs, 6, 3)
    assert got.nodes_explored > 5  # the point of this instance
    assert got.objective == pytest.approx(want.objective, rel=1e-9)
    assert got.selection.same_as(want.selection)


def _explicit_rounds(separate, c, A, b, lower, upper, warm=None,
                     cutoff=np.inf):
    """The separation loop run outside the solver, one LP call per round.

    Each optimal round hands its result to ``separate``; the grown rows
    and the result extended to them start the next call.  Returns the
    last result and the pivots of each round.
    """
    pivots = []
    while True:
        res = simplex_lp.solve_lp(c, A, b, lower, upper, warm=warm,
                                  cutoff=cutoff)
        pivots.append(res.iterations)
        grown = separate(res) if res.status == "optimal" else None
        if grown is None:
            return res, pivots
        A, b, warm = grown


def _state(res):
    """The bytes of a result's basis, statuses and inverse."""
    return [(v.dtype, v.tobytes()) for v in (res.basis, res.vstat, res.binv)]


def _watch_door(monkeypatch):
    """Record each call of ``blp._solve_node``, the one door between the
    search and the LP, and the ``pool.separate`` calls made during it.

    Per call: the door's arguments, what it hands ``solve_lp`` (``start``
    is ``warm`` extended to the rows), ``rounds`` (per separate call, its
    argument and what it returned, with the grown state copied before the
    LP pivots on it), and ``res`` with its ``x`` and ``state`` at return.
    """
    calls = []
    door = blp._solve_node

    def watched(pool, c, fixed, warm, cutoff=np.inf):
        call = SimpleNamespace(
            c=c, fixed=fixed.copy(), warm=warm, cutoff=cutoff, A=pool.A,
            b=pool.b[:pool.m], lower=np.r_[np.zeros(pool.n1), fixed == 1],
            upper=np.r_[np.ones(pool.n1), fixed != 0],
            start=pool.extend(warm), rounds=[])
        calls.append(call)
        separate = pool.separate

        def recorded(res):
            out = kept = separate(res)
            if out is not None:
                A, b, ext = out
                kept = A, b, replace(ext, basis=ext.basis.copy(),
                                     vstat=ext.vstat.copy(),
                                     binv=ext.binv.copy())
            call.rounds.append((res, kept))
            return out

        pool.separate = recorded
        try:
            call.res = door(pool, c, fixed, warm, cutoff)
        finally:
            del pool.separate
        call.x, call.state = call.res.x, _state(call.res)
        return call.res

    monkeypatch.setattr(blp, "_solve_node", watched)
    return calls


def _assert_children_start_from_their_parents_result(calls):
    """Each warm node LP gets an earlier node LP's own result, not a copy,
    one fixing of a free triangle away; both children of some parent ran,
    from that one object."""
    parents = {id(call.res): call for call in calls}
    warm = [id(call.warm) for call in calls if call.warm is not None]
    for call in calls:
        if call.warm is not None:
            parent = parents[id(call.warm)]
            (j,) = np.flatnonzero(call.fixed != parent.fixed)
            assert parent.fixed[j] < 0 and call.warm.binv is not None
    assert max(map(warm.count, warm)) == 2


@pytest.mark.parametrize("refresh_every", [7, 200])  # 200: the default
def test_children_start_from_the_parents_basis_inverse(monkeypatch,
                                                       refresh_every):
    rng = np.random.default_rng(4)
    cx = build_candidate_complex(6)
    inst = build_joint_instance(cx, _near_uniform_costs(rng, cx), 6, 3)
    want = solve(inst)
    monkeypatch.setattr(simplex_lp, "_REFRESH_EVERY", refresh_every)
    invert = simplex_lp.invert_basis
    built = []

    def counting_invert(A, basis):
        built.append(basis.size)
        return invert(A, basis)

    def assert_inverts(A, warm):
        np.testing.assert_allclose(
            warm.binv @ build_basis_matrix(A, warm.basis),
            np.eye(A.shape[0]), atol=1e-8)

    calls = _watch_door(monkeypatch)
    monkeypatch.setattr(simplex_lp, "invert_basis", counting_invert)
    got = solve(inst)
    monkeypatch.setattr(simplex_lp, "invert_basis", invert)

    assert got.objective == pytest.approx(want.objective, rel=1e-12)
    assert got.selection.same_as(want.selection)
    pivots = []  # of each separation round
    for call in calls:
        if call.warm is not None:
            # a warm LP gets the inverse of its basis, carried rather than
            # rebuilt, with the rows pooled since the parent's LP folded in
            assert_inverts(call.A, call.start)
        grown = [out for _, out in call.rounds if out is not None]
        for A, _, ext in grown:  # so does each round a separation starts
            assert_inverts(A, ext)
        # replaying the call one round at a time gives each round's pivots
        replay = iter(grown)
        again, rounds = _explicit_rounds(
            lambda res: next(replay, None), call.c, call.A, call.b,
            call.lower, call.upper, call.start, call.cutoff)
        assert sum(rounds) == call.res.iterations
        np.testing.assert_array_equal(again.x, call.x)
        pivots.extend(rounds)
    # the basis is reinverted only at the periodic refreshes, counted from
    # the start of each separation round
    assert len(built) == sum(it // refresh_every for it in pivots)
    if refresh_every == 200:
        assert got.nodes_explored == want.nodes_explored
        assert built == []
    else:
        assert built  # the reinversion path ran
    _assert_children_start_from_their_parents_result(calls)


def test_warm_states_are_unchanged_by_calls_that_separate(monkeypatch):
    # a separation round pivots in place on the state that separation
    # grew, never on the warm state the call was given: the parent result
    # that both siblings share is unchanged through their LPs
    calls = _watch_door(monkeypatch)
    cx = build_candidate_complex(7)
    for i in range(6):
        costs = _near_uniform_costs(np.random.default_rng([7, i]), cx)
        want = oracle_enumerate(cx, costs, 6, 3)
        got = solve(build_joint_instance(cx, costs, 6, 3))
        assert got.selection.same_as(want.selection)
    rounds = sum(out is not None for call in calls for _, out in call.rounds)
    warm = [call for call in calls if call.warm is not None]
    assert rounds > 20 and len(warm) > 20
    for call in calls:
        assert _state(call.res) == call.state
    _assert_children_start_from_their_parents_result(calls)


def test_each_node_makes_one_lp_call(monkeypatch):
    calls = _watch_door(monkeypatch)
    rng = np.random.default_rng(12)
    cx = build_candidate_complex(6)
    for c1, c2 in ((6, 3), (6, 4), (9, 5)):
        calls.clear()
        inst = build_joint_instance(cx, _near_uniform_costs(rng, cx), c1, c2)
        got = solve(inst)
        assert got.status == "optimal"
        assert got.nodes_explored > 1
        assert len(calls) == got.nodes_explored
        assert calls[0].cutoff == np.inf  # no incumbent before the root
        # later nodes stop at the incumbent
        assert min(call.cutoff for call in calls) < np.inf


def test_rows_are_extended_by_the_pool_alone(monkeypatch):
    # the LP continues from the state that separation returns; it never
    # grows a basis itself
    def refuse(*args):
        raise AssertionError("the LP extended a basis itself")

    monkeypatch.setattr(simplex_lp, "extend_binv_for_new_rows", refuse)
    rng = np.random.default_rng(12)
    cx = build_candidate_complex(6)
    for c1, c2 in ((6, 3), (6, 4), (9, 5)):
        costs = _near_uniform_costs(rng, cx)
        got = solve(build_joint_instance(cx, costs, c1, c2))
        want = oracle_enumerate(cx, costs, c1, c2)
        assert got.status == "optimal"
        assert got.nodes_explored > 1
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
        assert got.selection.same_as(want.selection)


def test_separation_inside_the_lp_matches_the_explicit_loop():
    rng = np.random.default_rng(23)
    rounds = pivots_in = pivots_out = 0
    other_paths = []
    for _ in range(30):
        cx = build_candidate_complex(int(rng.integers(5, 8)))
        costs = _random_costs(rng, cx)
        inst = build_joint_instance(cx, costs, int(rng.integers(0, 10)),
                                    int(rng.integers(1, 5)))
        c = np.concatenate([inst.h1, inst.h2])
        lower, upper = np.zeros(c.size), np.ones(c.size)
        fixed = rng.choice(cx.n_triangles, size=2, replace=False)
        upper[cx.n_edges + fixed[0]] = 0.0
        lower[cx.n_edges + fixed[1]] = 1.0
        inside, outside = _RowPool(inst), _RowPool(inst)
        got = simplex_lp.solve_lp(c, inside.A, inside.b[:2], lower, upper,
                                  separate=inside.separate)
        want, pivots = _explicit_rounds(outside.separate, c, outside.A,
                                        outside.b[:2], lower, upper)
        _assert_same_rounds(got, inside, want, outside)
        pivots_in += got.iterations
        pivots_out += sum(pivots)
        if got.iterations != sum(pivots):
            other_paths.append((got.iterations, sum(pivots)))
        rounds += len(pivots)
    assert rounds > 60  # most LPs separate rows more than once
    # these LPs are degenerate: rows violated by 1 or 0.5 can tie up to
    # rounding, and the carried values then pick another leaving row than
    # recomputed ones.  Three of the 30 take another path, 1-2 pivots
    # shorter; a change to the path must re-pin these counts
    assert other_paths == [(50, 51), (56, 58), (60, 61)]
    assert (pivots_in, pivots_out) == (740, 744)


def _assert_same_rounds(got, inside, want, outside):
    """One LP that separates in place against a new warm call per round.

    The in-place LP separates at its carried point and keeps the old
    rows' carried values across a round, where each new call recomputes
    them from the inverse, so the two agree up to rounding: the same rows
    in the same order, the same status and the same point.
    """
    assert _inclusion_rows(inside) == _inclusion_rows(outside)
    assert got.status == want.status == "optimal"
    np.testing.assert_allclose(got.x, want.x, rtol=0, atol=1e-12)
    assert got.bound == pytest.approx(want.bound, rel=1e-12, abs=1e-12)


def _coauthorship_instance(seed):
    """An n0 = 20 real-mode realization with similarity costs, as a run makes."""
    ds = make_coauthorship_fixture(n_authors=40, n_papers=60, keyword_dim=20,
                                   seed=0)
    sub = subsample_dataset(ds, 20, stage_rng(seed, 4))
    cx = build_candidate_complex(20)
    truth = sub.truth_selection(cx)
    costs = compute_costs(cx, sub.node_features,
                          edge_signals_from_nodes(sub.node_features),
                          PRIOR_TO_KIND["similarity"])
    return build_joint_instance(cx, costs, truth.n_selected_edges,
                                truth.n_selected_triangles)


@pytest.mark.parametrize("refresh_every", [200, 7])  # 200: the default
def test_many_separation_rounds_match_the_explicit_loop(monkeypatch,
                                                        refresh_every):
    # one LP that goes on in place across many separations pivots as a new
    # warm call per round does
    monkeypatch.setattr(simplex_lp, "_REFRESH_EVERY", refresh_every)
    inst = _coauthorship_instance(seed=3)
    c = np.concatenate([inst.h1, inst.h2])
    c /= c.max()
    lower, upper = np.zeros(c.size), np.ones(c.size)
    inside, outside = _RowPool(inst), _RowPool(inst)
    got = simplex_lp.solve_lp(c, inside.A, inside.b[:2], lower, upper,
                              separate=inside.separate)
    want, pivots = _explicit_rounds(outside.separate, c, outside.A,
                                    outside.b[:2], lower, upper)
    assert len(pivots) > 10  # the root separates rows at least 10 times
    _assert_same_rounds(got, inside, want, outside)
    assert got.iterations == sum(pivots)
    if refresh_every == 7:
        assert max(pivots) > 7  # a round reinverts


def test_each_round_continues_from_the_basic_point_of_its_grown_basis(
        monkeypatch):
    # a round that adds rows recomputes nothing: the LP keeps its carried
    # values on the old rows and gives each new slack b_i - A_i x at the
    # carried point.  That is sound when the grown inverse inverts the
    # grown basis and its basic point, from the carried nonbasic values,
    # is that state again
    def assert_continues(res, A, b, warm, lower, upper):
        D = _dense(A)
        m, n = D.shape
        old = res.basis.size
        np.testing.assert_allclose(warm.binv @ _basis_matrix(D, warm.basis),
                                   np.eye(m), atol=1e-8)
        x_nb = np.where(warm.vstat == simplex_lp.NB_UPPER,
                        np.concatenate([upper, np.full(m, np.inf)]),
                        np.concatenate([lower, np.zeros(m)]))
        x_nb[warm.basis] = 0.0
        xB = warm.binv @ (b - D @ x_nb[:n] - x_nb[n:])
        structural = res.basis < n
        np.testing.assert_allclose(xB[:old][structural],
                                   res.x[res.basis[structural]], atol=1e-8)
        np.testing.assert_allclose(xB[old:], b[old:] - D[old:] @ res.x,
                                   atol=1e-8)

    def grown(call):
        return sum(out is not None for _, out in call.rounds)

    calls = _watch_door(monkeypatch)
    solve(_coauthorship_instance(seed=3))  # a real-mode root
    assert sum(map(grown, calls)) > 10
    cx = build_candidate_complex(6)
    for i in range(16):  # branch benchmark roots; their pools complete
        costs = _near_uniform_costs(np.random.default_rng([0, i]), cx)
        assert solve(build_joint_instance(cx, costs, 6, 4)).status == "optimal"
    assert not any(grown(call) for call in calls if call.warm is not None)
    # noisy trees whose children separate rows over several rounds
    for prior, seed in (("similarity", 6), ("low_curl", 8)):
        bundle = make_bundle(SynthConfig(n0=15, seed=seed, edge_prior=prior,
                                         noise_sigma=0.5))
        big = build_candidate_complex(15)
        costs = compute_costs(big, bundle.x0, bundle.x1bar,
                              PRIOR_TO_KIND[prior])
        solve(build_joint_instance(big, costs, bundle.truth.n_selected_edges,
                                   bundle.truth.n_selected_triangles))
    warm = [grown(call) for call in calls if call.warm is not None]
    assert sum(warm) >= 5 and sum(n > 1 for n in warm) >= 2
    for call in calls:
        grown_at = -1
        for res, out in call.rounds:
            # a round's new rows include violated ones, and the LP sees
            # them in the values it carries: it pivots before it separates
            # again, with no recomputation to find them
            assert res.iterations > grown_at
            if out is not None:
                assert_continues(res, *out, call.lower, call.upper)
                grown_at = res.iterations


def test_lp_work_on_branching_and_trend_instances_is_pinned(monkeypatch):
    # totals of LP calls, pivots, separations and nodes; a change to the
    # pivot path shows up here and has to say so
    calls = _watch_door(monkeypatch)
    nodes = 0
    cx = build_candidate_complex(6)
    for i in range(32):  # the branch benchmark's first instances
        costs = _near_uniform_costs(np.random.default_rng([0, i]), cx)
        nodes += solve(build_joint_instance(cx, costs, 6, 4)).nodes_explored
    for n0 in (10, 15, 20):  # one realization per TREND size
        bundle = make_bundle(SynthConfig(n0=n0, seed=0, edge_prior="low_curl"))
        big = build_candidate_complex(n0)
        costs = compute_costs(big, bundle.x0, bundle.x1bar,
                              PRIOR_TO_KIND["low_curl"])
        nodes += solve(build_joint_instance(
            big, costs, bundle.truth.n_selected_edges,
            bundle.truth.n_selected_triangles)).nodes_explored
    # separations counts calls of separate: one at the carried optimum of
    # each round and a last one at the recomputed point, also once the pool
    # is complete (most children), where it returns None at once.  Pivots
    # moved 2402 -> 2433 when a round stopped recomputing its basic values:
    # rounding-level ties in the leaving row break the other way on a few
    # of the 32 trees (over all 256 branch instances at seed 0, pivots went
    # 18,583 -> 18,523)
    totals = dict(calls=len(calls),
                  pivots=sum(call.res.iterations for call in calls),
                  separations=sum(len(call.rounds) for call in calls),
                  nodes=nodes)
    assert totals == dict(calls=201, pivots=2433, separations=453, nodes=201)


def test_cutoff_stops_each_node_lp_at_a_valid_bound():
    # z <= bound <= the full LP bound, with the rows separated so far
    rng = np.random.default_rng(31)
    stopped = 0
    for _ in range(30):
        cx = build_candidate_complex(int(rng.integers(5, 8)))
        inst = build_joint_instance(cx, _random_costs(rng, cx),
                                    int(rng.integers(0, 10)),
                                    int(rng.integers(1, 5)))
        c = np.concatenate([inst.h1, inst.h2])
        free = np.full(inst.n_triangles, -1, dtype=np.int8)
        full = blp._solve_node(_RowPool(inst), c, free, None)
        assert full.status == "optimal"
        for frac in (0.3, 0.9, 0.999):
            z = frac * full.bound
            res = blp._solve_node(_RowPool(inst), c, free, None, z)
            assert res.status == "cutoff"
            assert z <= res.bound <= full.bound + 1e-12
            assert res.iterations <= full.iterations
            stopped += res.iterations < full.iterations
    assert stopped > 30


def _frac(x2):
    return np.minimum(np.abs(x2), np.abs(1.0 - x2))


@pytest.mark.parametrize("max_iter", [0, 1, 2])
def test_node_lps_stopped_early_still_give_the_optimum(monkeypatch, max_iter):
    # a node LP cut short still gives a valid bound but may leave every
    # triangle fractional, so branching alone must keep each child feasible:
    # with c2 near n_triangles, fixing to 0 soon leaves too few triangles
    monkeypatch.setattr(simplex_lp, "_MAX_ITER", max_iter)
    # such a node may have no free triangle far from integral; the choice
    # falls back to the cheapest free one, and must still be free
    fallbacks = []
    choose = blp._branch_triangle

    def checked(x2, fixed, cost, finished):
        j = choose(x2, fixed, cost, finished)
        if j is not None:
            assert fixed[j] < 0
            fallbacks.append(_frac(x2[j]) <= blp._INT_TOL)
        return j

    monkeypatch.setattr(blp, "_branch_triangle", checked)
    rng = np.random.default_rng(max_iter)
    for _ in range(20):
        cx = build_candidate_complex(int(rng.integers(4, 6)))
        costs = _random_costs(rng, cx)
        c1 = int(rng.integers(0, cx.n_edges + 1))
        c2 = int(rng.integers(cx.n_triangles - 3, cx.n_triangles + 1))
        # each branch fixes a free triangle, so no tree has more nodes than
        # this; a branch on a fixed one repeats its node and hits the limit
        got = solve(build_joint_instance(cx, costs, c1, c2),
                    node_limit=2 ** (cx.n_triangles + 1))
        want = oracle_enumerate(cx, costs, c1, c2)
        assert got.status == "optimal"
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
        assert got.lower_bound <= got.objective
    assert any(fallbacks)


def test_blands_rule_after_degenerate_pivots_keeps_the_optimum(monkeypatch):
    # with _BLAND_AFTER = 0 each pivot after a degenerate one leaves by the
    # smallest-index rule.  Partly zero costs make degenerate dual steps:
    # the rule chooses 633 times here, 182 times another row than the most
    # violated one, and without it these LPs take 1,101 pivots
    monkeypatch.setattr(simplex_lp, "_BLAND_AFTER", 0)
    calls = _watch_door(monkeypatch)
    rng = np.random.default_rng(1)
    for _ in range(60):
        cx = build_candidate_complex(int(rng.integers(5, 8)))
        h1, h2 = (rng.random(n) * (rng.random(n) < 0.5)
                  for n in (cx.n_edges, cx.n_triangles))
        costs = CostVectors(h1=h1, h2=h2, h2_kind="curl")
        c1, c2 = int(rng.integers(0, cx.n_edges + 1)), int(rng.integers(1, 4))
        got = solve(build_joint_instance(cx, costs, c1, c2))
        want = oracle_enumerate(cx, costs, c1, c2)
        assert got.status == "optimal"
        assert got.objective == pytest.approx(want.objective, rel=1e-9,
                                              abs=1e-12)
    assert (len(calls), sum(call.res.iterations for call in calls)) == (91,
                                                                         1225)


def test_branching_picks_the_cheapest_fractional_free_triangle():
    tol = blp._INT_TOL
    x2 = np.array([0.5, 0.4, 1 - tol / 2, tol / 2, 0.3, 0.2, 0.0, 1.0])
    fixed = np.array([0, -1, -1, -1, -1, -1, -1, -1], dtype=np.int8)
    cost = np.array([0.1, 0.9, 0.2, 0.2, 0.5, 0.5, 0.1, 0.1])
    # triangle 0 is fixed and 2, 3, 6, 7 are within _INT_TOL of integral,
    # though all are cheaper; 4 and 5 tie on cost and 4 has the lower index
    assert blp._branch_triangle(x2, fixed, cost, True) == 4
    assert blp._branch_triangle(x2, fixed, cost, False) == 4
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        x2 = rng.choice([0.0, 1.0, tol / 2, 1 - tol / 2, 2 * tol, 0.5,
                         rng.random()], size=n)
        fixed = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=n)
        cost = rng.choice([0.1, 0.2, 0.3], size=n)  # many equal costs
        far = [t for t in range(n) if fixed[t] < 0 and _frac(x2[t]) > tol]
        got = blp._branch_triangle(x2, fixed, cost, bool(rng.integers(2)))
        if far:
            assert got == min(far, key=lambda t: (cost[t], t))
        else:
            assert got is None or fixed[got] < 0


def test_branching_without_a_fractional_triangle_picks_a_free_one():
    tol = blp._INT_TOL
    cost = np.array([0.1, 0.3, 0.2, 0.2])
    # all free triangles near integral: decided once the LP has finished,
    # else the cheapest free triangle, lowest index among equal costs;
    # triangle 0 is cheaper still but fixed
    x2 = np.array([0.5, tol / 4, tol / 2, 1 - tol / 2])
    fixed = np.array([1, -1, -1, -1], dtype=np.int8)
    assert blp._branch_triangle(x2, fixed, cost, True) is None
    assert blp._branch_triangle(x2, fixed, cost, False) == 2
    x2 = np.zeros(4)  # every free triangle exactly integral
    assert blp._branch_triangle(x2, fixed, cost, False) == 2
    fixed[:] = 0  # nothing free: decided whatever the LP did
    assert blp._branch_triangle(x2, fixed, cost, False) is None


def test_node_total_on_near_uniform_instances_is_pinned():
    # 64 instances of the branch benchmark's family at a seed it does not
    # use; branching on the most fractional triangle took 566 nodes
    cx = build_candidate_complex(6)
    nodes = 0
    for i in range(64):
        costs = _near_uniform_costs(np.random.default_rng([2, i]), cx)
        got = solve(build_joint_instance(cx, costs, 6, 4))
        want = oracle_enumerate(cx, costs, 6, 4)
        assert got.status == "optimal"
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
        assert got.selection.same_as(want.selection)
        nodes += got.nodes_explored
    assert nodes == 374


def test_infeasible_warm_node_lp_raises(monkeypatch):
    # feasibility is decided by count, so an infeasible node LP is a
    # numerical failure, never a reason to prune or to re-solve cold
    rng = np.random.default_rng(4)
    cx = build_candidate_complex(6)
    inst = build_joint_instance(cx, _near_uniform_costs(rng, cx), 6, 3)

    def warm_infeasible(c, A, b, lower, upper, warm=None, cutoff=np.inf,
                        separate=None):
        res = simplex_lp.solve_lp(c, A, b, lower, upper, warm=warm,
                                  cutoff=cutoff, separate=separate)
        return res if warm is None else replace(res, status="infeasible")

    monkeypatch.setattr(blp, "solve_lp", warm_infeasible)
    with pytest.raises(AssertionError, match="feasible by count"):
        solve(inst)


def test_solution_satisfies_floors_and_inclusion():
    rng = np.random.default_rng(88)
    for _ in range(25):
        cx = build_candidate_complex(6)
        costs = _random_costs(rng, cx)
        c1 = int(rng.integers(0, cx.n_edges + 1))
        c2 = int(rng.integers(0, 5))
        res = solve(build_joint_instance(cx, costs, c1, c2))
        s1, s2 = res.selection.s1, res.selection.s2
        assert int(s1.sum()) >= c1
        assert int(s2.sum()) >= c2
        for t in np.flatnonzero(s2):
            assert np.all(s1[cx.triangle_edges[t]] == 1)


def test_exhaustive_binary_feasibility_matches_aggregated_form():
    # n0=4: every edge sits in exactly 2 triangles, alpha = 1/2; walking all
    # 2^(6+4) binary points, the per-face rows and the single aggregated row
    # per edge admit exactly the same set
    cx = build_candidate_complex(4)
    alpha = 1.0 / (cx.n0 - 2)
    n1, n2 = cx.n_edges, cx.n_triangles
    agree = 0
    for bits1 in itertools.product((0, 1), repeat=n1):
        s1 = np.array(bits1)
        for bits2 in itertools.product((0, 1), repeat=n2):
            s2 = np.array(bits2)
            aggregated = bool(np.all(s1 >= alpha * (cx.b2_plus @ s2)))
            linearized = all(s1[e] >= s2[t]
                             for t in range(n2) for e in cx.triangle_edges[t])
            assert aggregated == linearized, (bits1, bits2)
            agree += 1
    assert agree == 2 ** (n1 + n2)


def test_zero_floors_select_nothing():
    cx = build_candidate_complex(5)
    costs = CostVectors(h1=np.zeros(cx.n_edges), h2=np.zeros(cx.n_triangles),
                        h2_kind="curl")
    res = solve(build_joint_instance(cx, costs, 0, 0))
    assert res.status == "optimal"
    assert res.objective == 0.0
    assert res.selection.n_selected_edges == 0
    assert res.selection.n_selected_triangles == 0


def test_infeasible_floors():
    cx = build_candidate_complex(4)
    costs = CostVectors(h1=np.ones(cx.n_edges), h2=np.ones(cx.n_triangles),
                        h2_kind="curl")
    for c1, c2 in ((cx.n_edges + 1, 0), (0, cx.n_triangles + 1)):
        res = solve(build_joint_instance(cx, costs, c1, c2))
        assert res.status == "infeasible"
        assert res.selection is None
        assert res.objective == np.inf


def test_lp_bound_contracts():
    rng = np.random.default_rng(11)
    cx = build_candidate_complex(6)
    costs = _random_costs(rng, cx)
    inst = build_joint_instance(cx, costs, 6, 2)
    opt = solve(inst)

    root = lp_bound(inst)
    assert root <= opt.objective + 1e-9

    # fixing can only push the bound up
    t0 = int(opt.selection.triangle_indices[0])
    tightened = lp_bound(inst, fixed_triangles={t0: 0})
    assert tightened >= root - 1e-9

    # pinning the optimum's triangles reproduces its objective: with the
    # triangles fixed, the edge LP is integral
    fixed_t = {t: int(opt.selection.s2[t]) for t in range(cx.n_triangles)}
    pinned = lp_bound(inst, fixed_triangles=fixed_t)
    assert pinned == pytest.approx(opt.objective, rel=1e-9)

    zero = build_joint_instance(
        cx, CostVectors(h1=np.zeros(cx.n_edges), h2=np.zeros(cx.n_triangles),
                        h2_kind="curl"), 6, 2)
    assert lp_bound(zero) == pytest.approx(0.0, abs=1e-12)

    # fixing all but one triangle to 0 leaves fewer than c2 = 2
    assert lp_bound(inst, fixed_triangles={
        t: 0 for t in range(1, cx.n_triangles)}) == np.inf

    with pytest.raises(ValueError):
        lp_bound(inst, fixed_triangles={cx.n_triangles: 0})
    with pytest.raises(ValueError):
        lp_bound(inst, fixed_triangles={0: 2})


@pytest.mark.parametrize("bad", [2.5, 1.0, True, np.True_, "1", None])
def test_lp_bound_rejects_keys_and_values_that_are_not_integers(bad):
    # a float index used to raise IndexError, True used to fix triangle 1,
    # and a fixing of 1.0 or True was taken as 1
    cx = build_candidate_complex(6)
    inst = build_joint_instance(cx, _random_costs(np.random.default_rng(11),
                                                  cx), 6, 2)
    with pytest.raises(ValueError, match="triangle index"):
        lp_bound(inst, fixed_triangles={bad: 1})
    with pytest.raises(ValueError, match="triangle fixing"):
        lp_bound(inst, fixed_triangles={1: bad})
    # numpy integers are integers
    assert lp_bound(inst, fixed_triangles={np.int64(1): np.int8(1)}) == (
        lp_bound(inst, fixed_triangles={1: 1}))


@pytest.mark.parametrize("limit", [float("nan"), 2.5, 3.0, True, "3", -1])
def test_solve_rejects_a_node_limit_that_is_not_a_nonnegative_integer(limit):
    # nan used to run without a limit, and 2.5 and True were accepted
    cx = build_candidate_complex(6)
    inst = build_joint_instance(cx, _near_uniform_costs(
        np.random.default_rng(4), cx), 6, 3)
    with pytest.raises(ValueError, match="node_limit"):
        solve(inst, node_limit=limit)
    assert solve(inst, node_limit=np.int64(0)).status == "node_limit"


def test_lp_bound_decides_feasibility_by_count(monkeypatch):
    # an infeasible fixing is known by counting, before any LP; an LP that
    # still reports "infeasible" is a numerical failure, as in solve
    rng = np.random.default_rng(12)
    cx = build_candidate_complex(5)
    inst = build_joint_instance(cx, _random_costs(rng, cx), 4, 3)

    calls = _watch_door(monkeypatch)
    assert lp_bound(inst, fixed_triangles={
        t: 0 for t in range(cx.n_triangles - 2)}) == np.inf
    assert lp_bound(replace(inst, c1=cx.n_edges + 1)) == np.inf
    assert calls == []  # the LP was not asked

    def infeasible(*args, **kwargs):
        return replace(simplex_lp.solve_lp(*args, **kwargs),
                       status="infeasible")

    monkeypatch.setattr(blp, "solve_lp", infeasible)
    with pytest.raises(AssertionError, match="feasible by count"):
        lp_bound(inst, fixed_triangles={0: 0})


def test_lp_bound_does_not_depend_on_cost_scale():
    # noisy costs at n0=20 reach about 1e4, while the pivot tolerances are
    # absolute; the LP sees the costs divided by the largest one
    bundle = make_bundle(SynthConfig(n0=20, seed=0, edge_prior="similarity",
                                     noise_sigma=0.5))
    cx = build_candidate_complex(20)
    costs = compute_costs(cx, bundle.x0, bundle.x1bar,
                          PRIOR_TO_KIND["similarity"])
    c1, c2 = bundle.truth.n_selected_edges, bundle.truth.n_selected_triangles
    unscaled = lp_bound(build_joint_instance(cx, costs, c1, c2))
    for scale in (1e-15, 1e-12, 1e-9, 1e-6, 1e6, 1e9, 1e12, 1e15):
        inst = build_joint_instance(
            cx, CostVectors(h1=costs.h1 * scale, h2=costs.h2 * scale,
                            h2_kind=costs.h2_kind), c1, c2)
        bound = lp_bound(inst)
        # this root LP is integral: the bound meets the optimum, to rounding
        assert bound <= solve(inst).objective * (1.0 + 1e-12), scale
        assert bound == pytest.approx(unscaled * scale, rel=1e-9), scale


def test_node_limit_is_anytime():
    rng = np.random.default_rng(4)
    cx = build_candidate_complex(6)
    costs = _near_uniform_costs(rng, cx)
    inst = build_joint_instance(cx, costs, 6, 3)
    opt = solve(inst)
    assert opt.nodes_explored > 5

    cut = solve(inst, node_limit=0)
    assert cut.status == "node_limit"
    assert cut.nodes_explored == 0
    assert cut.selection is None
    assert cut.lower_bound <= opt.objective

    cut = solve(inst, node_limit=3)
    assert cut.status in ("node_limit", "optimal")
    assert cut.lower_bound <= opt.objective + 1e-9
    if cut.selection is not None:
        assert cut.objective >= opt.objective - 1e-9

    warm = solve(inst, node_limit=0, warm_start=opt.selection)
    assert warm.selection is not None
    assert warm.objective == pytest.approx(opt.objective, rel=1e-12)
    assert warm.lower_bound <= warm.objective


def test_warm_start_rules():
    rng = np.random.default_rng(21)
    cx = build_candidate_complex(6)
    costs = _random_costs(rng, cx)
    inst = build_joint_instance(cx, costs, 6, 2)
    cold = solve(inst)

    # a selection violating inclusion is silently dropped
    bad = Selection.from_indices(cx.n_edges, cx.n_triangles,
                                 list(range(6)), [cx.n_triangles - 1])
    res = solve(inst, warm_start=bad)
    assert res.objective == pytest.approx(cold.objective, rel=1e-12)
    assert res.selection.same_as(cold.selection)

    # a feasible but suboptimal start never worsens the answer
    all_on = Selection(s1=np.ones(cx.n_edges, dtype=np.int8),
                       s2=np.ones(cx.n_triangles, dtype=np.int8))
    res = solve(inst, warm_start=all_on)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(cold.objective, rel=1e-9)

    # starting at the optimum keeps it
    res = solve(inst, warm_start=cold.selection)
    assert res.status == "optimal"
    assert res.selection.same_as(cold.selection)


def test_solve_is_deterministic():
    rng = np.random.default_rng(4)
    cx = build_candidate_complex(6)
    costs = _near_uniform_costs(rng, cx)
    inst = build_joint_instance(cx, costs, 6, 3)
    a, b = solve(inst), solve(inst)
    assert a.objective == b.objective
    assert a.nodes_explored == b.nodes_explored
    assert a.selection.same_as(b.selection)


def test_build_instance_validation():
    cx = build_candidate_complex(5)
    costs = CostVectors(h1=np.ones(cx.n_edges), h2=np.ones(cx.n_triangles),
                        h2_kind="curl")
    for c1, c2 in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            build_joint_instance(cx, costs, c1, c2)
    short = CostVectors(h1=np.ones(3), h2=np.ones(cx.n_triangles),
                        h2_kind="curl")
    with pytest.raises(ValueError):
        build_joint_instance(cx, short, 1, 1)
    # the edge completion and the oracle assume nonnegative costs
    for key, value in (("h1", -1.0), ("h2", -1e-12)):
        h = {"h1": np.ones(cx.n_edges), "h2": np.ones(cx.n_triangles)}
        h[key][2] = value
        with pytest.raises(ValueError, match="costs must be nonnegative"):
            build_joint_instance(cx, CostVectors(**h, h2_kind="curl"), 1, 1)
    inst = build_joint_instance(cx, costs, 1, 1)
    assert inst.triangle_edges is cx.triangle_edges


@pytest.mark.parametrize("c1, c2", [(6.9, 4), (True, 4), ("6", 4),
                                    (6, 4.0), (6, np.True_), (6, None)])
def test_build_instance_rejects_floors_that_are_not_counts(c1, c2):
    # 6.9 and True were read as 6 and 1; floors above the candidate counts
    # are a solver outcome (test_infeasible_floors), not checked here.  The
    # oracle checks its floors the same way
    cx = build_candidate_complex(5)
    costs = CostVectors(h1=np.ones(cx.n_edges), h2=np.ones(cx.n_triangles),
                        h2_kind="curl")
    for build in (build_joint_instance, oracle_enumerate):
        with pytest.raises(ValueError, match="cardinality floor"):
            build(cx, costs, c1, c2)
    with pytest.raises(ValueError, match="cardinality floor c1"):
        oracle_enumerate(cx, costs, -3, 4)
    inst = build_joint_instance(cx, costs, np.int64(6), np.uint8(4))
    assert (type(inst.c1), type(inst.c2)) == (int, int)


def test_oracle_budget_refusal():
    cx = build_candidate_complex(12)
    costs = CostVectors(h1=np.ones(cx.n_edges), h2=np.ones(cx.n_triangles),
                        h2_kind="curl")
    with pytest.raises(ValueError, match="budget"):
        oracle_enumerate(cx, costs, 5, 5)
    small = build_candidate_complex(5)
    small_costs = CostVectors(h1=np.ones(small.n_edges),
                              h2=np.ones(small.n_triangles), h2_kind="curl")
    with pytest.raises(ValueError, match="budget"):
        oracle_enumerate(small, small_costs, 1, 2, budget=1)


def test_oracle_breaks_ties_lexicographically():
    cx = build_candidate_complex(5)
    costs = CostVectors(h1=np.zeros(cx.n_edges), h2=np.zeros(cx.n_triangles),
                        h2_kind="curl")
    res = oracle_enumerate(cx, costs, 0, 2)
    assert sorted(res.selection.triangle_indices) == [0, 1]


def test_instance_io_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    cx = build_candidate_complex(6)
    costs = _random_costs(rng, cx, scale=5.0)
    inst = build_joint_instance(cx, costs, 6, 2)
    path = tmp_path / "inst.txt"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.n_edges == inst.n_edges
    assert back.n_triangles == inst.n_triangles
    assert back.c1 == inst.c1 and back.c2 == inst.c2
    assert np.array_equal(back.h1, inst.h1)  # repr round-trips floats exactly
    assert np.array_equal(back.h2, inst.h2)
    assert np.array_equal(back.triangle_edges, inst.triangle_edges)
    a, b = solve(inst), solve(back)
    assert a.objective == b.objective
    assert a.selection.same_as(b.selection)
    again = tmp_path / "again.txt"
    write_instance(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_read_instance_rejects_malformed_files(tmp_path):
    rng = np.random.default_rng(9)
    cx = build_candidate_complex(4)
    costs = _random_costs(rng, cx)
    inst = build_joint_instance(cx, costs, 2, 1)
    good = tmp_path / "good.txt"
    write_instance(inst, good)
    text = good.read_text()
    scalars, cost_lines = text.split("h1 0 ", 1)
    cost_lines = "h1 0 " + cost_lines
    tri_lines = "".join(f"tri {t} {a} {b} {c}\n"
                        for t, (a, b, c) in enumerate(inst.triangle_edges))
    # the same problem as a version-1 file, which also held alpha and faces
    version_1 = (scalars.replace("sctopo-blp 2", "sctopo-blp 1", 1)
                 + "alpha 0.5\n" + cost_lines + tri_lines)
    cases = {
        "magic": text.replace("sctopo-blp 2", "sctopo-blp 9", 1),
        "version 1": version_1,
        "version 1 lines under the version 2 header":
            version_1.replace("sctopo-blp 1", "sctopo-blp 2", 1),
        "scalar": text.replace("c2 1\n", ""),
        "float scalar": text.replace("c2 1\n", "c2 1.0\n"),
        "entry": text.replace("h1 3 ", "h1 0 ", 1),  # leaves h1[3] unset
        "negative": text.replace("h2 0 ", "h2 0 -", 1),
        "junk": text + "wat 0 0\n",
    }
    for name, mangled in cases.items():
        bad = tmp_path / f"{name}.txt"
        bad.write_text(mangled)
        with pytest.raises(ValueError) as err:
            read_instance(bad)
        if name in ("magic", "version 1"):
            assert "sctopo-blp 2" in str(err.value)


def test_read_instance_names_the_first_bad_line(tmp_path):
    cx = build_candidate_complex(4)
    inst = build_joint_instance(cx, _random_costs(np.random.default_rng(3), cx),
                                2, 1)
    good = tmp_path / "good.txt"
    write_instance(inst, good)
    lines = good.read_text().splitlines()
    h1_0, h1_1, h2_0 = lines[5], lines[6], lines[5 + cx.n_edges]

    def message(*edits):
        mangled = list(lines)
        for at, line in edits:
            mangled[at] = line
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(mangled) + "\n")
        with pytest.raises(ValueError) as err:
            read_instance(path)
        return str(err.value)

    # each cost line fault, and with two faults the earlier line wins
    assert message((6, "wat 0 0")) == "unrecognized line: 'wat 0 0'"
    assert message((6, "h1 1")) == \
        "expected 2 number(s) after the tag: 'h1 1'"
    assert message((6, "h1 1 x")) == \
        "expected 2 number(s) after the tag: 'h1 1 x'"
    assert message((6, "h1 1 0.5 7")) == \
        "expected 2 number(s) after the tag: 'h1 1 0.5 7'"
    assert message((6, "h1 6 0.5")) == "index out of range: 'h1 6 0.5'"
    assert message((6, "h1 -1 0.5")) == "index out of range: 'h1 -1 0.5'"
    assert message((6, "h2 4 0.5")) == "index out of range: 'h2 4 0.5'"
    assert message((6, "h1 0 0.5")) == "index given twice: 'h1 0 0.5'"
    assert message((6, "h1 1 nan")) == \
        "costs must be finite and nonnegative: 'h1 1 nan'"
    assert message((6, "h1 1 -0.5")) == \
        "costs must be finite and nonnegative: 'h1 1 -0.5'"
    assert message((5, "h1 0 inf"), (6, "wat")) == \
        "costs must be finite and nonnegative: 'h1 0 inf'"
    assert message((5, "h1 9 1"), (6, "h1 0")) == "index out of range: 'h1 9 1'"
    assert message((6, "h1 0 1"), (7, "h1 2 -1")) == \
        "index given twice: 'h1 0 1'"
    # an h1 line in place of an h2 line leaves an h2 entry unset
    assert message((5 + cx.n_edges, h1_0)) == f"index given twice: {h1_0!r}"
    assert message((5 + cx.n_edges, "h1 1 0.5")) == \
        "index given twice: 'h1 1 0.5'"
    assert message((1, "n_edges 6.0")) == \
        "expected 1 number(s) after the tag: 'n_edges 6.0'"
    assert message((2, "n_edges 6")) == "unknown or repeated line: 'n_edges 6'"
    # lines may come in any order and with extra blanks
    path = tmp_path / "shuffled.txt"
    path.write_text("\n\n".join(lines[:5] + [h2_0, f"  {h1_1}\t"]
                                 + lines[7:5 + cx.n_edges] + [h1_0]
                                 + lines[6 + cx.n_edges:]) + "\n")
    back = read_instance(path)
    assert np.array_equal(back.h1, inst.h1)
    assert np.array_equal(back.h2, inst.h2)
    assert back.h1.dtype == back.h2.dtype == np.float64


def _dense(A):
    """The dense matrix of a :class:`SparseRows`."""
    out = np.zeros(A.shape)
    out[A.rows, A.cols] = A.vals
    return out


def _basis_matrix(D, basis):
    """Columns of the dense ``[D I]`` at ``basis``, one at a time."""
    m, n = D.shape
    B = np.zeros((m, m))
    for p, j in enumerate(basis):
        if j < n:
            B[:, p] = D[:, j]
        else:
            B[j - n, p] = 1.0
    return B


def _assert_products_match_dense(A, D, rng):
    # integer-valued operands keep every sum exact in any order
    m, n = D.shape
    y = rng.integers(-3, 4, size=m).astype(float)
    x = rng.integers(-3, 4, size=n).astype(float)
    np.testing.assert_array_equal(A.pivot_row(y), np.concatenate([y @ D, y]))
    np.testing.assert_array_equal(A.matvec(x), D @ x)
    for first in range(1, m + 1):  # the rows from first on
        np.testing.assert_array_equal(A.matvec(x, first), (D @ x)[first:])
    for q in range(n):
        rows, vals = A.column(q)
        np.testing.assert_array_equal(rows, np.flatnonzero(D[:, q]))
        np.testing.assert_array_equal(vals, D[rows, q])
    basis = rng.choice(n + m, size=m, replace=False)
    np.testing.assert_array_equal(build_basis_matrix(A, basis),
                                  _basis_matrix(D, basis))


def test_pooled_rows_match_their_dense_form():
    # every product the LP forms from the pooled index pairs equals the one
    # from the dense rows, at every pool size; an A handed out before the
    # pool grew keeps its own rows, and a result solved on it extends to
    # the rows pooled since exactly as the dense block formula says
    rng = np.random.default_rng(41)
    grown = 0
    for _ in range(30):
        cx = build_candidate_complex(int(rng.integers(4, 8)))
        inst = build_joint_instance(cx, _random_costs(rng, cx),
                                    int(rng.integers(0, cx.n_edges)),
                                    int(rng.integers(1, 4)))
        pool = _RowPool(inst)
        c = np.concatenate([inst.h1, inst.h2])
        lower, upper = np.zeros(pool.n), np.ones(pool.n)
        earlier = []  # (A, its dense rows, a result solved on them)
        for _ in range(4):
            A, D = pool.A, _dense(pool.A)
            _assert_products_match_dense(A, D, rng)
            res = simplex_lp.solve_lp(c, A, pool.b[:pool.m], lower, upper)
            earlier.append((A, D, res))
            pool.add_violated(rng.random(pool.n))
        D_now = _dense(pool.A)
        for A, D, res in earlier:
            _assert_products_match_dense(A, D, rng)
            np.testing.assert_array_equal(D, D_now[:D.shape[0]])
            if res.status != "optimal" or D.shape[0] == pool.m:
                continue
            m = D.shape[0]
            ext = pool.extend(res)
            struct = res.basis < pool.n
            C = np.zeros((pool.m - m, m))
            C[:, struct] = D_now[m:, res.basis[struct]]
            assert ext.basis.tolist() == res.basis.tolist() + list(
                range(pool.n + m, pool.n + pool.m))
            np.testing.assert_array_equal(ext.binv[:m, :m], res.binv)
            np.testing.assert_array_equal(ext.binv[m:, :m], -C @ res.binv)
            np.testing.assert_array_equal(ext.binv[m:, m:],
                                          np.eye(pool.m - m))
            np.testing.assert_allclose(
                ext.binv @ _basis_matrix(D_now, ext.basis), np.eye(pool.m),
                atol=1e-9)
            grown += 1
    assert grown > 20


def _branch_kind_instance(seed):
    """A near-uniform n0 = 6 tree, as the branch benchmark solves."""
    cx = build_candidate_complex(6)
    return build_joint_instance(
        cx, _near_uniform_costs(np.random.default_rng(seed), cx), 6, 4)


@pytest.mark.parametrize("share", [0.0, 1.0])
@pytest.mark.parametrize("make", [_coauthorship_instance, _branch_kind_instance],
                         ids=["coauthorship", "near_uniform"])
def test_hypersparse_update_changes_no_result(monkeypatch, make, share):
    # updating only the nonzero rows of the pivot column (on no column with
    # share 0, on every column with a zero row with share 1) pivots
    # exactly as the default.  The co-authorship columns are hypersparse;
    # those of the n0 = 6 tree are mostly dense, so there the default takes
    # the full update that share 1 replaces
    inst = make(seed=3)
    c = np.concatenate([inst.h1, inst.h2])
    c /= c.max()
    free = np.full(inst.n_triangles, -1, dtype=np.int8)
    pool = _RowPool(inst)
    want = blp._solve_node(pool, c, free, None)
    monkeypatch.setattr(simplex_lp, "_SPARSE_SHARE", share)
    got = blp._solve_node(_RowPool(inst), c, free, None)
    assert got.iterations == want.iterations
    assert got.bound == want.bound
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.binv, want.binv)


def _inclusion_rows(pool):
    """(t, e) of each generated row s2[t] - s1[e] <= 0, in pool order."""
    rows = _dense(pool.A)[2:]
    assert np.all((rows != 0).sum(axis=1) == 2)
    assert np.all(pool.b[2:pool.m] == 0.0)
    t = np.argmax(rows[:, pool.n1:] == 1.0, axis=1)
    e = np.argmax(rows[:, :pool.n1] == -1.0, axis=1)
    return list(zip(t.tolist(), e.tolist()))


def test_row_pool_adds_each_violated_row_once_in_row_major_order():
    cx = build_candidate_complex(5)
    tri = cx.triangle_edges
    assert not set(tri[1]) & set(tri[4])
    inst = build_joint_instance(cx, _random_costs(np.random.default_rng(2), cx),
                                3, 2)
    pool = _RowPool(inst)
    n1 = cx.n_edges
    np.testing.assert_array_equal(_dense(pool.A)[:2], [
        np.r_[-np.ones(n1), np.zeros(cx.n_triangles)],
        np.r_[np.zeros(n1), -np.ones(cx.n_triangles)]])
    assert list(pool.b[:2]) == [-3.0, -2.0]

    x = np.zeros(pool.n)
    x[n1 + 4] = x[n1 + 1] = 1.0
    x[tri[4, 1]] = 1.0  # this face of triangle 4 is covered
    assert pool.add_violated(x) == 5
    assert pool.add_violated(x) == 0  # same point: every row is pooled
    first = [(1, tri[1, 0]), (1, tri[1, 1]), (1, tri[1, 2]),
             (4, tri[4, 0]), (4, tri[4, 2])]
    assert _inclusion_rows(pool) == first

    x[tri[4, 1]] = 0.0  # now uncovered: only that row is new
    x[n1 + 0] = 0.5
    assert pool.add_violated(x) == 4
    assert _inclusion_rows(pool) == first + [
        (0, tri[0, 0]), (0, tri[0, 1]), (0, tri[0, 2]), (4, tri[4, 1])]


def _full_scan(pool, x):
    """The ``(t, e)`` rows that scanning every face difference adds at
    ``x``, completion at half of the triangles included."""
    if pool.m == pool.full:
        return []
    x1, x2 = x[:pool.n1], x[pool.n1:]
    new = (x2[:, None] - x1[pool.tri_edges] > blp._ROW_TOL) & ~pool.pooled
    t, slot = np.nonzero(new)
    n2 = pool.pooled.shape[0]
    if (t.size and 2 * (pool.m - 2 + t.size) >= n2
            and 2 * np.count_nonzero((pool.pooled | new).any(axis=1)) >= n2):
        t, slot = np.nonzero(~pool.pooled)
    return list(zip(t.tolist(), pool.tri_edges[t, slot].tolist()))


def test_row_pool_adds_the_rows_of_the_full_face_scan():
    # scanning only the triangles with x2[t] > min(x1) adds the same rows
    # in the same order, on random points, with values a hair below 0, and
    # with face differences exactly at the tolerance
    rng = np.random.default_rng(43)
    tol = blp._ROW_TOL
    completed = at_tol = 0
    for _ in range(60):
        cx = build_candidate_complex(int(rng.integers(4, 9)))
        inst = build_joint_instance(cx, _random_costs(rng, cx), 3, 2)
        pool = _RowPool(inst)
        n1, n2 = cx.n_edges, cx.n_triangles
        for _ in range(5):
            x = rng.random(pool.n) * (rng.random(pool.n)
                                      < rng.choice([0.03, 0.3]))
            # basic values a hair below 0; the second violates rows of
            # triangles at 0
            x[rng.random(pool.n) < 0.1] = rng.choice([-1e-10, -5e-9])
            # faces of some triangles sit exactly at the tolerance
            for t in rng.choice(n2, size=min(n2, 3), replace=False):
                x[n1 + t] = tol
                x[cx.triangle_edges[t]] = 0.0
            if rng.random() < 0.3:  # a point with all edges raised
                x[:n1] += 0.5
            at_tol += np.count_nonzero(
                x[n1:, None] - x[:n1][pool.tri_edges] == tol)
            want = _full_scan(pool, x)
            before = pool._pairs[:pool.m - 2].tolist()
            assert pool.add_violated(x) == len(want)
            assert pool._pairs[:pool.m - 2].tolist() == before + [
                [n1 + t, e] for t, e in want]
        completed += pool.m == pool.full
    assert completed >= 10 and at_tol > 100


def test_row_pool_grows_past_its_initial_capacity():
    cx = build_candidate_complex(8)  # 56 triangles, 168 inclusion rows
    inst = build_joint_instance(cx, _random_costs(np.random.default_rng(3), cx),
                                0, 0)
    pool = _RowPool(inst)
    x = np.r_[np.zeros(cx.n_edges), np.ones(cx.n_triangles)]
    assert pool.add_violated(x) == 3 * cx.n_triangles
    want = [(t, e) for t in range(cx.n_triangles) for e in cx.triangle_edges[t]]
    assert _inclusion_rows(pool) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_instance_rejects_non_finite_costs(bad):
    cx = build_candidate_complex(5)
    for level in ("h1", "h2"):
        vals = {"h1": np.ones(cx.n_edges), "h2": np.ones(cx.n_triangles)}
        vals[level][0] = bad
        costs = CostVectors(h1=vals["h1"], h2=vals["h2"], h2_kind="curl")
        with pytest.raises(ValueError, match="non-finite"):
            build_joint_instance(cx, costs, 1, 1)


def test_row_pool_completes_once_half_the_triangles_have_a_row():
    cx = build_candidate_complex(6)  # 20 triangles, 60 inclusion rows
    tri = cx.triangle_edges
    inst = build_joint_instance(
        cx, _near_uniform_costs(np.random.default_rng(5), cx), 6, 4)
    pool = _RowPool(inst)
    n1 = cx.n_edges

    def point(triangles):  # every face row of these triangles is violated
        x = np.zeros(pool.n)
        x[n1 + np.asarray(triangles)] = 1.0
        return x

    assert pool.add_violated(point([1, 5, 9])) == 9
    # 3 pooled and 5 new triangles: 8 of 20, still lazy
    assert pool.add_violated(point([1, 2, 3, 4, 6, 7])) == 15
    lazy = [(t, e) for t in (1, 5, 9) for e in tri[t]]
    lazy += [(t, e) for t in (2, 3, 4, 6, 7) for e in tri[t]]
    assert _inclusion_rows(pool) == lazy
    # 8 pooled and 2 new: half of the triangles, so every row is pooled,
    # the rest in row-major order
    assert pool.add_violated(point([0, 8])) == 60 - 24
    assert pool.m == 2 + 3 * cx.n_triangles
    rest = [(t, e) for t in range(cx.n_triangles) for e in tri[t]
            if (t, e) not in lazy]
    assert _inclusion_rows(pool) == lazy + rest

    A, b, m = _dense(pool.A), pool.b.copy(), pool.m
    for x in (point(range(20)), np.zeros(pool.n), np.ones(pool.n)):
        assert pool.add_violated(x) == 0
        assert pool.m == m
        np.testing.assert_array_equal(_dense(pool.A), A)
        np.testing.assert_array_equal(pool.b, b)


def test_trend_sized_root_stays_lazy():
    # the n0 = 20 root pools rows of fewer than half of its triangles, so
    # trend and real mode keep generating rows lazily
    inst = _coauthorship_instance(seed=3)
    c = np.concatenate([inst.h1, inst.h2])
    pool = _RowPool(inst)
    free = np.full(inst.n_triangles, -1, dtype=np.int8)
    assert blp._solve_node(pool, c / c.max(), free, None).status == "optimal"
    assert pool.rounds > 10
    assert 2 * np.count_nonzero(pool.pooled.any(axis=1)) < inst.n_triangles

    got = solve(inst)
    assert got.separations >= pool.rounds
    assert 2 < got.pool_rows < 3 * inst.n_triangles / 2


def test_solve_matches_oracle_on_instances_that_complete_their_pool():
    completed = branched = 0
    for n0, c1, c2 in ((5, 4, 2), (6, 6, 3), (6, 9, 5), (7, 6, 3), (7, 9, 4)):
        cx = build_candidate_complex(n0)
        for i in range(6):
            costs = _near_uniform_costs(np.random.default_rng([n0, i]), cx)
            got = solve(build_joint_instance(cx, costs, c1, c2))
            if got.pool_rows < 2 + 3 * cx.n_triangles:
                continue
            want = oracle_enumerate(cx, costs, c1, c2)
            assert got.status == "optimal"
            assert got.objective == pytest.approx(want.objective, rel=1e-9)
            assert got.selection.same_as(want.selection)
            completed += 1
            branched += got.nodes_explored > 1
    assert completed >= 24 and branched >= 20


def test_solution_reports_separations_and_pooled_rows():
    cx = build_candidate_complex(6)
    inst = build_joint_instance(
        cx, _near_uniform_costs(np.random.default_rng([0, 1]), cx), 6, 4)
    got = solve(inst)
    assert got.nodes_explored > 1
    assert got.pool_rows == 62  # the two floors and all 60 inclusion rows
    assert got.separations >= 1
    # a solve that needs no LP pools nothing
    none = solve(build_joint_instance(cx, _near_uniform_costs(
        np.random.default_rng(0), cx), 6, 21))
    assert none.status == "infeasible"
    assert (none.separations, none.pool_rows) == (0, 0)

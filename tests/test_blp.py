"""Branch-and-bound solver vs. the enumeration oracle, plus instance I/O."""

import heapq
import itertools
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
from sctopo.smoothness import CostVectors


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


@pytest.mark.parametrize("refresh_every", [7, 200])  # 200: the default
def test_children_start_from_the_parents_basis_inverse(monkeypatch,
                                                       refresh_every):
    rng = np.random.default_rng(4)
    cx = build_candidate_complex(6)
    inst = build_joint_instance(cx, _near_uniform_costs(rng, cx), 6, 3)
    want = solve(inst)
    monkeypatch.setattr(simplex_lp, "_REFRESH_EVERY", refresh_every)

    build_basis = simplex_lp.build_basis_matrix
    built = []
    pivots = []
    pushed = []

    def counting_build(A, basis):
        built.append(basis.size)
        return build_basis(A, basis)

    def checked_solve_lp(c, A, b, lower, upper, basis=None, vstat=None,
                         binv=None):
        if basis is not None:
            # a warm LP gets the inverse of its basis, carried rather than
            # rebuilt, whether at a child's first LP or after new rows
            assert binv is not None
            np.testing.assert_allclose(binv @ build_basis(A, basis),
                                       np.eye(A.shape[0]), atol=1e-8)
        res = simplex_lp.solve_lp(c, A, b, lower, upper, basis=basis,
                                  vstat=vstat, binv=binv)
        pivots.append(res.iterations)
        return res

    def recording_push(heap, item):
        pushed.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(simplex_lp, "build_basis_matrix", counting_build)
    monkeypatch.setattr(blp, "solve_lp", checked_solve_lp)
    monkeypatch.setattr(blp, "heapq", SimpleNamespace(
        heappush=recording_push, heappop=heapq.heappop))
    got = solve(inst)

    assert got.objective == pytest.approx(want.objective, rel=1e-12)
    assert got.selection.same_as(want.selection)
    # the basis is rebuilt only at the periodic reinversions inside an LP
    assert len(built) == sum(it // refresh_every for it in pivots)
    if refresh_every == 200:
        assert got.nodes_explored == want.nodes_explored
        assert built == []
    else:
        assert built  # the reinversion path ran
    # siblings are pushed in pairs and share their parent's one LP result
    assert pushed and len(pushed) % 2 == 0
    for down, up in zip(pushed[::2], pushed[1::2]):
        assert down[4] is up[4]
        assert down[4].binv is not None


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
    e0 = int(opt.selection.edge_indices[0])
    tightened = lp_bound(inst, fixed_edges={e0: 0})
    assert tightened >= root - 1e-9

    # fully pinning the optimum reproduces its objective
    fixed_e = {e: int(opt.selection.s1[e]) for e in range(cx.n_edges)}
    fixed_t = {t: int(opt.selection.s2[t]) for t in range(cx.n_triangles)}
    pinned = lp_bound(inst, fixed_edges=fixed_e, fixed_triangles=fixed_t)
    assert pinned == pytest.approx(opt.objective, rel=1e-9)

    zero = build_joint_instance(
        cx, CostVectors(h1=np.zeros(cx.n_edges), h2=np.zeros(cx.n_triangles),
                        h2_kind="curl"), 6, 2)
    assert lp_bound(zero) == pytest.approx(0.0, abs=1e-12)

    # contradictory fixings leave nothing feasible
    t0 = int(cx.triangle_id(0, 1, 2))
    e01 = int(cx.edge_id(0, 1))
    assert lp_bound(inst, fixed_edges={e01: 0}, fixed_triangles={t0: 1}) == np.inf

    with pytest.raises(ValueError):
        lp_bound(inst, fixed_edges={cx.n_edges: 0})
    with pytest.raises(ValueError):
        lp_bound(inst, fixed_triangles={0: 2})


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
    inst = build_joint_instance(cx, costs, 1, 1)
    assert inst.triangle_edges is cx.triangle_edges


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


def _inclusion_rows(pool):
    """(t, e) of each generated row s2[t] - s1[e] <= 0, in pool order."""
    rows = pool.A[2:pool.m]
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
    np.testing.assert_array_equal(pool.A[:2], [
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

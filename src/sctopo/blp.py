"""Exact joint edge/triangle selection as a binary linear program.

The problem: choose binary indicators s1 (edges) and s2 (triangles) to
minimize ``h1 @ s1 + h2 @ s2`` subject to cardinality floors
``sum(s1) >= c1``, ``sum(s2) >= c2`` and the requirement that a selected
triangle brings all three of its boundary edges with it.

The paper writes inclusion as one aggregated constraint,
``s1 >= alpha * B2plus @ s2`` with ``0 < alpha <= 1/(n0 - 2)``.  Here it
is stored per face, ``s2[t] <= s1[e]``, which has the same binary
feasible set for every such ``alpha`` but is a tighter relaxation, so the
LP bounds used for branch and bound are stronger.  No ``alpha`` is
therefore stored: an instance is its costs, its floors and the faces of
its candidate complex, and those faces follow from ``n0``.

``solve`` runs best-first branch and bound on LP relaxations produced by
:mod:`sctopo.simplex_lp`, generating violated inclusion rows lazily (the
full set is 3 * n_triangles rows; a handful are ever active).
``oracle_enumerate`` is an independent brute-force reference used by the
test suite; it shares no code with ``solve`` beyond the instance type.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb, inf

import numpy as np

from .complexes import Selection, build_candidate_complex, candidate_n0
from .simplex_lp import BASIC, extend_binv_for_new_rows, solve_lp

_PRUNE_REL = 1e-9  # pruning slack, relative to the incumbent objective
_INT_TOL = 1e-6
_ROW_TOL = 1e-9


@dataclass(frozen=True)
class BlpInstance:
    """Costs, cardinality floors and triangle/edge incidence of one problem."""

    n_edges: int
    n_triangles: int
    h1: np.ndarray
    h2: np.ndarray
    c1: int
    c2: int
    triangle_edges: np.ndarray  # (n_triangles, 3) edge ids of each face


@dataclass
class BlpSolution:
    selection: Selection | None
    objective: float
    lower_bound: float
    status: str  # "optimal" | "infeasible" | "node_limit"
    nodes_explored: int
    wall_time: float


def _check_floors(c1, c2):
    if c1 < 0 or c2 < 0:
        raise ValueError(f"cardinality floors must be nonnegative; "
                         f"got c1 {c1}, c2 {c2}")


def build_joint_instance(cx, costs, c1, c2):
    c1, c2 = int(c1), int(c2)
    _check_floors(c1, c2)
    if costs.h1.size != cx.n_edges or costs.h2.size != cx.n_triangles:
        raise ValueError("cost vectors do not match the candidate complex")
    if not (np.isfinite(costs.h1).all() and np.isfinite(costs.h2).all()):
        raise ValueError("cost vectors have non-finite entries")
    return BlpInstance(
        n_edges=cx.n_edges,
        n_triangles=cx.n_triangles,
        h1=np.asarray(costs.h1, dtype=float),
        h2=np.asarray(costs.h2, dtype=float),
        c1=c1,
        c2=c2,
        triangle_edges=cx.triangle_edges,
    )


class _RowPool:
    """Cardinality rows plus lazily generated inclusion rows, shared tree-wide."""

    def __init__(self, instance):
        n1, n2 = instance.n_edges, instance.n_triangles
        self.n1 = n1
        self.n = n1 + n2
        self.tri_edges = instance.triangle_edges
        self.pooled = np.zeros((n2, 3), dtype=bool)  # (t, slot) rows added
        cap = 64
        self.A = np.zeros((cap, self.n))
        self.b = np.zeros(cap)
        self.m = 0
        rows = self._append(2, [-float(instance.c1), -float(instance.c2)])
        rows[0, :n1] = -1.0
        rows[1, n1:] = -1.0

    def _append(self, k, rhs):
        """Reserve ``k`` zero rows with right-hand side ``rhs``; return them."""
        if self.m + k > self.b.size:
            cap = max(2 * self.b.size, self.m + k)
            A = np.zeros((cap, self.n))
            A[: self.m] = self.A[: self.m]
            b = np.zeros(cap)
            b[: self.m] = self.b[: self.m]
            self.A, self.b = A, b
        self.b[self.m : self.m + k] = rhs
        self.m += k
        return self.A[self.m - k : self.m]

    def add_violated(self, x):
        """Append inclusion rows s2[t] - s1[e] <= 0 violated at x; count added.

        Rows go in row-major ``(t, slot)`` order and each at most once.
        """
        x1 = x[: self.n1]
        x2 = x[self.n1 :]
        new = (x2[:, None] - x1[self.tri_edges] > _ROW_TOL) & ~self.pooled
        t, slot = np.nonzero(new)
        if t.size:
            self.pooled[t, slot] = True
            rows = self._append(t.size, 0.0)
            k = np.arange(t.size)
            rows[k, self.n1 + t] = 1.0
            rows[k, self.tri_edges[t, slot]] = -1.0
        return int(t.size)


def _solve_node(pool, c, lower, upper, warm):
    """LP over the pool, regenerating violated inclusion rows until clean.

    ``warm`` is an earlier :class:`LpResult` whose final basis starts the
    first LP, or None for a cold start.  Rows the pool gained after ``warm``
    was solved enter with their slacks basic.
    """
    n = pool.n
    while True:
        basis = vstat = binv = None
        if warm is not None:
            basis, vstat, binv = warm.basis, warm.vstat, warm.binv
            m_old = basis.size
            if m_old < pool.m:
                binv = extend_binv_for_new_rows(binv, pool.A[m_old : pool.m, :n],
                                                basis, n)
                basis = np.concatenate([basis, np.arange(n + m_old, n + pool.m)])
                vstat = np.concatenate(
                    [vstat, np.full(pool.m - m_old, BASIC, dtype=np.int8)])
        res = solve_lp(c, pool.A[: pool.m], pool.b[: pool.m], lower, upper,
                       basis=basis, vstat=vstat, binv=binv)
        if res.status == "infeasible" and warm is not None:
            # a numerically drifted warm basis could misreport; certify cold
            warm = None
            continue
        if res.status != "optimal" or pool.add_violated(res.x) == 0:
            return res
        warm = res


def _feasible_exact(instance, s1, s2):
    if int(s1.sum()) < instance.c1 or int(s2.sum()) < instance.c2:
        return False
    sel_t = np.flatnonzero(s2)
    return bool(np.all(s1[instance.triangle_edges[sel_t]] == 1))


def solve(instance, node_limit=10_000_000, warm_start=None):
    """Best-first branch and bound; exact up to the stated tolerances.

    ``warm_start`` seeds the incumbent with a known feasible selection
    (it is ignored if infeasible).  Returns status ``"node_limit"`` with
    the incumbent and a still-valid lower bound when the node budget runs
    out, so the result is usable as an anytime answer.  A negative
    ``node_limit`` raises ``ValueError``.
    """
    if node_limit < 0:
        raise ValueError(f"node_limit must be nonnegative; got {node_limit}")
    t0 = time.perf_counter()
    n1, n2 = instance.n_edges, instance.n_triangles
    n = n1 + n2
    if instance.c1 > n1 or instance.c2 > n2:
        return BlpSolution(None, inf, inf, "infeasible", 0,
                           time.perf_counter() - t0)

    c = np.concatenate([instance.h1, instance.h2])
    pool = _RowPool(instance)

    inc_sel = None
    inc_obj = inf
    if warm_start is not None:
        s1 = np.asarray(warm_start.s1, dtype=np.int8)
        s2 = np.asarray(warm_start.s2, dtype=np.int8)
        if s1.size == n1 and s2.size == n2 and _feasible_exact(instance, s1, s2):
            inc_sel = warm_start
            inc_obj = float(instance.h1 @ s1 + instance.h2 @ s2)

    def prune_at():
        # nodes with bound at or above this cannot improve the incumbent
        if inc_sel is None:
            return inf
        return inc_obj - _PRUNE_REL * max(1.0, abs(inc_obj))

    # heap of (bound, seq, lower, upper, parent LP result); bounds stored as
    # int8.  The two children of a node share its LpResult without x
    # (solve_lp copies the arrays on entry), so each branched node with an
    # open child holds O(m^2) floats for its basis inverse.
    seq = 0
    heap = [(0.0, seq, np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8),
             None)]
    explored = 0
    lb_cap = inf  # min bound over pruned subtrees
    status = "optimal"

    while heap:
        bound, _, lo8, up8, warm = heapq.heappop(heap)
        if bound >= prune_at():
            # best-first order: every open node is at least this bad
            lb_cap = min(lb_cap, bound)
            break
        if explored >= node_limit:
            lb_cap = min(lb_cap, bound)
            status = "node_limit"
            break
        explored += 1

        res = _solve_node(pool, c, lo8.astype(float), up8.astype(float), warm)
        if res.status == "infeasible":
            continue
        if res.bound >= prune_at():
            lb_cap = min(lb_cap, res.bound)
            continue

        x = res.x
        frac = np.minimum(np.abs(x), np.abs(1.0 - x))
        free = lo8 < up8
        if res.status == "optimal" and (frac[free].max(initial=0.0) <= _INT_TOL):
            s_all = (x > 0.5).astype(np.int8)
            s_all[~free] = lo8[~free]  # fixed vars take their exact value
            s1, s2 = s_all[:n1], s_all[n1:]
            if _feasible_exact(instance, s1, s2):
                obj = float(instance.h1 @ s1 + instance.h2 @ s2)
                if obj < inc_obj:
                    inc_obj = obj
                    inc_sel = Selection(s1=s1, s2=s2)
                continue
            # cannot happen: the row pool was regenerated until clean
            raise AssertionError("integral LP point failed exact feasibility")

        cand = np.where(free, frac, -1.0)
        best = cand.max()
        ties = np.flatnonzero(cand >= best - 1e-12)
        tri_ties = ties[ties >= n1]
        j = int(tri_ties[0]) if tri_ties.size else int(ties[0])

        res = replace(res, x=None)  # x is not read after branching
        for fix_to in (0, 1):
            lo_c, up_c = lo8.copy(), up8.copy()
            if fix_to == 0:
                up_c[j] = 0
            else:
                lo_c[j] = 1
            seq += 1
            heapq.heappush(heap, (res.bound, seq, lo_c, up_c, res))

    wall = time.perf_counter() - t0
    if inc_sel is None:
        if status == "node_limit":
            return BlpSolution(None, inf, lb_cap, status, explored, wall)
        return BlpSolution(None, inf, inf, "infeasible", explored, wall)
    return BlpSolution(inc_sel, inc_obj, min(inc_obj, lb_cap), status,
                       explored, wall)


def lp_bound(instance, fixed_edges=None, fixed_triangles=None):
    """LP relaxation lower bound under a partial assignment.

    ``fixed_edges`` / ``fixed_triangles`` map index -> 0 or 1.  Returns
    ``inf`` when the fixed problem is infeasible.
    """
    n1, n2 = instance.n_edges, instance.n_triangles
    lower = np.zeros(n1 + n2)
    upper = np.ones(n1 + n2)
    for mapping, off, size, what in ((fixed_edges, 0, n1, "edge"),
                                     (fixed_triangles, n1, n2, "triangle")):
        for idx, val in (mapping or {}).items():
            if not 0 <= idx < size:
                raise ValueError(f"{what} index {idx} out of range")
            if val not in (0, 1):
                raise ValueError(f"{what} fixing must be 0 or 1; got {val}")
            lower[off + idx] = upper[off + idx] = float(val)
    if instance.c1 > n1 or instance.c2 > n2:
        return inf
    c = np.concatenate([instance.h1, instance.h2])
    pool = _RowPool(instance)
    res = _solve_node(pool, c, lower, upper, None)
    return inf if res.status == "infeasible" else float(res.bound)


def oracle_enumerate(cx, costs, c1, c2, budget=1_000_000):
    """Brute-force optimum by enumerating triangle subsets of size exactly c2.

    With nonnegative costs some optimum selects exactly ``c2`` triangles,
    and for a fixed triangle set the best edge set is the forced faces
    plus the cheapest remaining edges up to ``c1`` (ties on cost broken by
    index).  Subsets are scanned in lexicographic order and improvements
    must be strict, so ties resolve to the lexicographically smallest
    subset.  Refuses instances with more than ``budget`` subsets.
    """
    t0 = time.perf_counter()
    c1, c2 = int(c1), int(c2)
    n1, n2 = cx.n_edges, cx.n_triangles
    if c1 > n1 or c2 > n2:
        return BlpSolution(None, inf, inf, "infeasible", 0,
                           time.perf_counter() - t0)
    if comb(n2, c2) > budget:
        raise ValueError(f"enumeration needs {comb(n2, c2)} subsets; "
                         f"budget is {budget}")

    h1 = [float(v) for v in costs.h1]
    h2 = [float(v) for v in costs.h2]
    faces = [tuple(int(e) for e in row) for row in cx.triangle_edges]
    fill_order = sorted(range(n1), key=lambda e: (h1[e], e))

    best_obj = inf
    best = None
    count = 0
    for subset in combinations(range(n2), c2):
        count += 1
        chosen = set()
        for t in subset:
            chosen.update(faces[t])
        obj = sum(h2[t] for t in subset) + sum(h1[e] for e in chosen)
        if len(chosen) < c1:
            need = c1 - len(chosen)
            for e in fill_order:
                if e in chosen:
                    continue
                chosen.add(e)
                obj += h1[e]
                need -= 1
                if need == 0:
                    break
        if obj < best_obj:
            best_obj = obj
            best = (sorted(chosen), subset)

    wall = time.perf_counter() - t0
    sel = Selection.from_indices(n1, n2, best[0], list(best[1]))
    return BlpSolution(sel, best_obj, best_obj, "optimal", count, wall)


_MAGIC = "sctopo-blp 2"
_SCALARS = ("n_edges", "n_triangles", "c1", "c2")


def write_instance(instance, path):
    """Plain-text dump: one line per integer scalar, then per cost entry.

    The triangle faces are not written: ``read_instance`` rebuilds them
    from the candidate complex that ``n_edges`` determines.
    """
    lines = [_MAGIC] + [f"{key} {getattr(instance, key)}" for key in _SCALARS]
    lines += [f"h1 {e} {float(v)!r}" for e, v in enumerate(instance.h1)]
    lines += [f"h2 {t} {float(v)!r}" for t, v in enumerate(instance.h2)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_instance(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"not a recognized instance file: the first line "
                         f"must be {_MAGIC!r}")
    scalars = {}
    idx = 1
    while idx < len(lines) and lines[idx].split()[0] not in ("h1", "h2"):
        key, val = lines[idx].split(maxsplit=1)
        if key not in _SCALARS or key in scalars:
            raise ValueError(f"unknown or repeated line: {lines[idx]!r}")
        scalars[key] = int(val)
        idx += 1
    try:
        n1, n2, c1, c2 = [scalars[key] for key in _SCALARS]
    except KeyError as missing:
        raise ValueError(f"instance file lacks {missing}") from None
    n0 = candidate_n0(n1, n2)
    _check_floors(c1, c2)
    h1 = np.zeros(n1)
    h2 = np.zeros(n2)
    # line tag -> (cost vector it fills, which indices have a line already)
    rows = {"h1": (h1, np.zeros(n1, dtype=bool)),
            "h2": (h2, np.zeros(n2, dtype=bool))}
    for ln in lines[idx:]:
        parts = ln.split()
        if parts[0] not in rows:
            raise ValueError(f"unrecognized line: {ln!r}")
        if len(parts) != 3:
            raise ValueError(f"expected an index and a value: {ln!r}")
        target, seen = rows[parts[0]]
        i = int(parts[1])
        if not 0 <= i < target.size:
            raise ValueError(f"index out of range: {ln!r}")
        if seen[i]:
            raise ValueError(f"index given twice: {ln!r}")
        value = float(parts[2])
        if not math.isfinite(value):
            raise ValueError(f"non-finite value: {ln!r}")
        seen[i] = True
        target[i] = value
    if not all(seen.all() for _, seen in rows.values()):
        raise ValueError("instance file is missing entries")
    if (h1 < 0).any() or (h2 < 0).any():
        raise ValueError("costs must be nonnegative")
    return BlpInstance(n_edges=n1, n_triangles=n2, h1=h1, h2=h2, c1=c1, c2=c2,
                       triangle_edges=build_candidate_complex(n0).triangle_edges)

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
:mod:`sctopo.simplex_lp`, generating violated inclusion rows lazily into
one pool shared by the tree.  The pool stores each inclusion row as the
index pair ``(n1 + t, e)`` of its two entries, and the floors as one
``-1`` per variable, so no LP array grows as rows times variables; the LP
forms its products from these entries.  Of the 3 * n_triangles rows,
pools at ``n0 >= 10`` end with a few percent.  Small trees (``n0 = 6``) would
pool most rows anyway, one round at a time, so once the triangles with
a row are half of all triangles, the pool takes every row at once.
``BlpSolution`` reports the rounds that pooled rows and the rows pooled
at the end.  Each node is one ``solve_lp`` call, made by ``_solve_node``,
the one door between the search and the LP engine: it starts from the
parent's final basis, extended to the rows pooled since then
(``_RowPool.extend``); the LP adds the rows violated at the point it
carries, once that point looks optimal, through the pool's ``separate``,
which extends that round's result the same way, and goes on pivoting
from it in place, with no per-round rebuild or recomputation of its
dual-simplex state; and it stops with status ``"cutoff"`` as soon as its
dual objective reaches the incumbent's, which prunes the node.  ``_MAX_ITER`` of
:mod:`sctopo.simplex_lp` caps the pivots of one node.  It branches on
the cheapest free triangle that the node's LP leaves fractional, the
lowest index among equal costs (``_branch_triangle``), and on triangles
only: once they are fixed, the edge LP (unit rows, one floor,
``[0, 1]`` boxes) is integral, and for ``h1 >= 0`` its optimum is their
faces plus the cheapest other edges by ``(cost, index)`` up to ``c1``
(``_complete_edges``).  So edge ties break toward the lowest index; tied
triangle sets need not.  Since no edge is ever fixed, a node is feasible
exactly when at least ``c2`` triangles are not fixed to 0: feasibility is
decided by count (``_feasible``, in ``solve`` and ``lp_bound``), not by
the LP.  Costs are divided by their maximum, so no tolerance depends on
the cost scale.
``oracle_enumerate`` is an independent brute-force reference used by the
test suite; it shares no code with ``solve`` beyond the instance type.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb, inf

import numpy as np

from .complexes import (Selection, build_candidate_complex, candidate_n0,
                        check_count, cheapest)
from .simplex_lp import SparseRows, extend_binv_for_new_rows, solve_lp

DEFAULT_NODE_LIMIT = 10_000_000  # branch-and-bound nodes before "node_limit"
_PRUNE_REL = 1e-9  # pruning slack, relative to the incumbent objective
_INT_TOL = 1e-6
_ROW_TOL = 1e-9


@dataclass(frozen=True)
class BlpInstance:
    """Costs, cardinality floors and triangle/edge incidence of one problem."""

    h1: np.ndarray
    h2: np.ndarray
    c1: int
    c2: int
    triangle_edges: np.ndarray  # (n_triangles, 3) edge ids of each face

    @property
    def n_edges(self):
        return self.h1.size

    @property
    def n_triangles(self):
        return self.h2.size


@dataclass
class BlpSolution:
    selection: Selection | None
    objective: float
    lower_bound: float
    status: str  # "optimal" | "infeasible" | "node_limit"
    nodes_explored: int
    wall_time: float
    separations: int = 0  # rounds that pooled inclusion rows
    pool_rows: int = 0  # rows pooled at the end, the two floors included


def _check_floors(c1, c2):
    """The floors as ints; ``ValueError`` unless each is a nonnegative
    integer, not a bool.  A floor above its candidate count is left to the
    solve, which reports it ``"infeasible"``."""
    return (check_count(c1, "cardinality floor c1"),
            check_count(c2, "cardinality floor c2"))


def build_joint_instance(cx, costs, c1, c2):
    c1, c2 = _check_floors(c1, c2)
    if costs.h1.size != cx.n_edges or costs.h2.size != cx.n_triangles:
        raise ValueError("cost vectors do not match the candidate complex")
    if not (np.isfinite(costs.h1).all() and np.isfinite(costs.h2).all()):
        raise ValueError("cost vectors have non-finite entries")
    if (costs.h1 < 0).any() or (costs.h2 < 0).any():
        raise ValueError("costs must be nonnegative")
    return BlpInstance(h1=np.asarray(costs.h1, dtype=float),
                       h2=np.asarray(costs.h2, dtype=float), c1=c1, c2=c2,
                       triangle_edges=cx.triangle_edges)


class _RowPool:
    """Cardinality rows plus lazily generated inclusion rows, shared tree-wide.

    ``A`` lists its entries in row order (:class:`SparseRows`): the two
    floors' ``-1`` on every variable, then per inclusion row
    ``s2[t] - s1[e] <= 0`` the index pair ``(n1 + t, e)`` of its ``+1``
    and ``-1``.  Every array is allocated for all ``3 * n_triangles``
    rows up front; a pooled row only writes its pair.
    """

    def __init__(self, instance):
        n1, n2 = instance.n_edges, instance.n_triangles
        self.n1 = n1
        self.n = n = n1 + n2
        self.tri_edges = instance.triangle_edges
        self.pooled = np.zeros((n2, 3), dtype=bool)  # (t, slot) rows added
        self.full = 2 + 3 * n2  # m once every inclusion row is pooled
        self.rounds = 0  # add_violated calls that added rows
        self.m = 2
        self.b = np.zeros(self.full)
        self.b[:2] = -float(instance.c1), -float(instance.c2)
        per_row = np.full(self.full, 2)
        per_row[:2] = n1, n2
        self._rows = np.repeat(np.arange(self.full), per_row)
        self._cols = np.zeros(n + 6 * n2, dtype=np.int64)
        self._cols[:n] = np.arange(n)
        self._vals = np.full(n + 6 * n2, -1.0)
        self._vals[n::2] = 1.0
        self._pairs = self._cols[n:].reshape(-1, 2)  # (n1 + t, e) per row
        self._A = self._entries(0, 2)

    def _entries(self, first, stop):
        """Rows ``first`` to ``stop`` of ``A``, renumbered from 0; ``first``
        is 0 or a row past the floors."""
        lo = 0 if first == 0 else self.n + 2 * (first - 2)
        hi = self.n + 2 * (stop - 2)
        return SparseRows(self._rows[lo:hi] - first, self._cols[lo:hi],
                          self._vals[lo:hi], (stop - first, self.n))

    @property
    def A(self):
        """The rows pooled so far, one object per size."""
        if self._A.shape[0] != self.m:
            self._A = self._entries(0, self.m)
        return self._A

    def add_violated(self, x):
        """Append inclusion rows s2[t] - s1[e] <= 0 violated at x; count added.

        Rows go in row-major ``(t, slot)`` order and each at most once.
        Once at least half of the triangles have a pooled or newly violated
        row, every row not yet pooled is added, in the same order.  Only
        triangles with ``x2[t] > min(x1)`` are scanned: ``fl(a - b) >
        _ROW_TOL > 0`` implies ``a > b``, so no other triangle has one.
        """
        if self.m == self.full:
            return 0
        x1 = x[: self.n1]
        x2 = x[self.n1 :]
        scan = (x2 > np.minimum.reduce(x1)).nonzero()[0]
        i, slot = np.nonzero((x2[scan, None] - x1[self.tri_edges[scan]]
                              > _ROW_TOL) & ~self.pooled[scan])
        t = scan[i]
        # Complete at half of the triangles: n0 = 6 trees end holding 73% of
        # the rows on average, pools at n0 >= 10 never more than 10%.  A
        # triangle with a row holds at least one, so the triangles can reach
        # half only once the rows do; below that, they are not counted.
        n2 = self.pooled.shape[0]
        if (t.size and 2 * (self.m - 2 + t.size) >= n2 and 2 * np.count_nonzero(
                np.bincount(t, minlength=n2) + self.pooled.any(axis=1)) >= n2):
            t, slot = np.nonzero(~self.pooled)
        if t.size:
            self.rounds += 1
            self.pooled[t, slot] = True
            pairs = self._pairs[self.m - 2 : self.m - 2 + t.size]
            pairs[:, 0] = self.n1 + t
            pairs[:, 1] = self.tri_edges[t, slot]
            self.m += t.size
        return int(t.size)

    def extend(self, res):
        """``res`` extended to the rows pooled since it was solved, if any.

        The one place a result grows; its new rows' slacks enter basic.
        """
        if res is None or res.basis.size == self.m:
            return res
        return extend_binv_for_new_rows(
            res, self._entries(res.basis.size, self.m), self.n)

    def separate(self, res):
        """Add the rows violated at ``res.x``; ``(A, b, res)`` grown, or None."""
        if self.add_violated(res.x) == 0:
            return None
        return self.A, self.b[: self.m], self.extend(res)


def _feasible(instance, fixed):
    """Feasibility by count: edges are never fixed, so the floors can be
    met when ``c1 <= n_edges`` and at least ``c2`` triangles are not fixed
    to 0, the nonzero entries of ``fixed``."""
    return (instance.c1 <= instance.n_edges
            and np.count_nonzero(fixed) >= instance.c2)


def _solve_node(pool, c, fixed, warm, cutoff=inf):
    """The LP of a node feasible by count; the pool grows by its violated rows.

    The one door between the search and the LP engine.  ``fixed`` is int8
    over the triangles (-1 free, else 0 or 1); edges keep ``[0, 1]``.
    ``warm`` is an earlier :class:`LpResult`, solved under looser or equal
    bounds, or None for a cold start; ``pool.extend`` brings it to the rows
    pooled since.  ``pool.separate`` adds the rows violated where the LP
    looks optimal below ``cutoff``; a complete pool returns None at once.
    An ``"infeasible"`` LP is a numerical failure and raises
    ``AssertionError``.
    """
    lower = np.zeros(pool.n)
    upper = np.ones(pool.n)
    lower[pool.n1 :] = fixed == 1
    upper[pool.n1 :] = fixed != 0
    res = solve_lp(c, pool.A, pool.b[: pool.m], lower, upper,
                   warm=pool.extend(warm), cutoff=cutoff,
                   separate=pool.separate)
    if res.status == "infeasible":
        raise AssertionError("LP infeasible at a node feasible by count")
    return res


def _complete_edges(instance, s2):
    """The cheapest edges that carry the triangles ``s2`` when ``h1 >= 0``.

    Their faces, then the other edges by ``(cost, index)`` up to ``c1``.
    """
    s1 = np.zeros(instance.n_edges, dtype=np.int8)
    s1[instance.triangle_edges[s2 == 1]] = 1
    s1[cheapest(max(instance.c1 - int(s1.sum()), 0), instance.h1,
                exclude=s1 == 1)] = 1
    return s1


def _branch_triangle(x2, fixed, cost, finished):
    """The free triangle to branch on, or None once the triangles are decided.

    ``x2`` is the node LP's point over the triangles, ``fixed`` is int8
    (-1 free) and ``cost`` the triangles' LP costs.  The choice is the
    cheapest free triangle more than ``_INT_TOL`` from integral, the lowest
    index among equal costs.  With none, the node is decided when its LP
    ``finished`` or no triangle is free; an LP stopped at ``_MAX_ITER``
    branches on the cheapest free triangle instead.
    """
    free = fixed < 0
    pick = free & (np.minimum(np.abs(x2), np.abs(1.0 - x2)) > _INT_TOL)
    if not pick.any():
        if finished or not free.any():
            return None
        pick = free
    return int(np.where(pick, cost, inf).argmin())


def solve(instance, node_limit=DEFAULT_NODE_LIMIT, warm_start=None):
    """Best-first branch and bound on the triangles; exact up to tolerances.

    Each node branches on its cheapest fractional free triangle, the lowest
    index among equal costs (``_branch_triangle``).  On near-uniform
    ``n0 = 6`` instances this needs a quarter fewer nodes than branching on
    the most fractional triangle.

    Every node is feasible by count (``_feasible``), so an infeasible
    node LP is a numerical failure and raises ``AssertionError``.
    The LPs see the costs divided by the largest one; ``objective`` and
    ``lower_bound`` are in the original units.

    ``warm_start`` seeds the incumbent with a selection's triangles and
    their completed edges (its own edges are not read), unless they miss
    the floor ``c2``.  When the node budget runs out, returns status
    ``"node_limit"`` with the incumbent and a still-valid lower bound, an
    anytime answer.  A ``node_limit`` that is not a nonnegative integer
    raises ``ValueError``.
    """
    check_count(node_limit, "node_limit")
    t0 = time.perf_counter()
    n1, n2 = instance.n_edges, instance.n_triangles
    root = np.full(n2, -1, dtype=np.int8)
    if not _feasible(instance, root):
        return BlpSolution(None, inf, inf, "infeasible", 0,
                           time.perf_counter() - t0)

    c = np.concatenate([instance.h1, instance.h2])
    scale = float(c.max(initial=0.0)) or 1.0
    c /= scale
    pool = _RowPool(instance)

    inc_sel, inc_obj = None, inf
    cutoff = inf  # scaled; a node bound at or above it cannot improve inc_obj

    def offer(s2):  # keep s2 with its completed edges if they improve
        nonlocal inc_sel, inc_obj, cutoff
        s1 = _complete_edges(instance, s2)
        obj = float(instance.h1 @ s1 + instance.h2 @ s2)
        if obj < inc_obj:
            inc_obj, inc_sel = obj, Selection(s1=s1, s2=s2)
            cutoff = obj / scale - _PRUNE_REL * max(1.0, obj / scale)

    if (warm_start is not None and warm_start.s2.size == n2
            and warm_start.s2.sum() >= instance.c2):
        offer(warm_start.s2)

    # heap of (bound, seq, fixed, parent LP result); fixed is int8 over the
    # triangles (-1 free, else 0 or 1), and every node in it is feasible by
    # count.  Siblings share the parent's LpResult without x, one O(m^2)
    # basis inverse per parent.
    seq = 0
    heap = [(0.0, seq, root, None)]
    explored = 0
    lb_cap = inf  # min scaled bound over pruned subtrees
    status = "optimal"

    while heap:
        bound, _, fixed, warm = heapq.heappop(heap)
        if bound >= cutoff:
            # best-first order: every open node is at least this bad
            lb_cap = min(lb_cap, bound)
            break
        if explored >= node_limit:
            lb_cap = min(lb_cap, bound)
            status = "node_limit"
            break
        explored += 1

        res = _solve_node(pool, c, fixed, warm, cutoff)
        if res.bound >= cutoff:  # a "cutoff" result always lands here
            lb_cap = min(lb_cap, res.bound)
            continue

        x2 = res.x[n1:]
        j = _branch_triangle(x2, fixed, c[n1:], res.status == "optimal")
        if j is None:
            # the triangles are decided, so the completion solves this node
            s2 = np.where(fixed < 0, x2 > 0.5, fixed).astype(np.int8)
            if s2.sum() < instance.c2:
                raise AssertionError("integral LP point misses the floor c2")
            offer(s2)
            continue

        res.x = None  # not read after branching
        for fix_to in (0, 1):
            child = fixed.copy()
            child[j] = fix_to
            if _feasible(instance, child):
                seq += 1
                heapq.heappush(heap, (res.bound, seq, child, res))

    return BlpSolution(inc_sel, inc_obj, min(inc_obj, lb_cap * scale), status,
                       explored, time.perf_counter() - t0,
                       separations=pool.rounds, pool_rows=pool.m)


def lp_bound(instance, fixed_triangles=None):
    """LP relaxation lower bound with some triangles fixed.

    ``fixed_triangles`` maps triangle index -> 0 or 1, both integers and
    not bools; any other key or value raises ``ValueError``.  Returns ``inf``
    when the fixed problem is infeasible, which, as in ``solve``, is
    decided by count; an infeasible LP raises ``AssertionError``.  As in
    ``solve``, the LP sees the costs divided by the largest one, and the
    bound is scaled back.
    """
    fixed = np.full(instance.n_triangles, -1, dtype=np.int8)
    for idx, val in (fixed_triangles or {}).items():
        fixed[check_count(idx, "triangle index", instance.n_triangles)] = (
            check_count(val, "triangle fixing", 2))
    if not _feasible(instance, fixed):
        return inf
    c = np.concatenate([instance.h1, instance.h2])
    scale = float(c.max(initial=0.0)) or 1.0
    res = _solve_node(_RowPool(instance), c / scale, fixed, None)
    return float(res.bound) * scale


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
    c1, c2 = _check_floors(c1, c2)
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


def _numbers(ln, fields, *kinds):
    """``fields``, the fields after the tag of line ``ln``, parsed as ``kinds``."""
    try:
        return [kind(v) for kind, v in zip(kinds, fields, strict=True)]
    except ValueError:
        raise ValueError(f"expected {len(kinds)} number(s) after the tag: "
                         f"{ln!r}") from None


def read_instance(path):
    """The instance a file from ``write_instance`` holds; ``ValueError``
    names the first line that is malformed, out of range or repeated."""
    with open(path) as fh:  # each nonblank line with its fields, split once
        lines = [(ln, ln.split()) for ln in map(str.strip, fh) if ln]
    if not lines or lines[0][0] != _MAGIC:
        raise ValueError(f"not a recognized instance file: the first line "
                         f"must be {_MAGIC!r}")
    scalars = {}
    idx = 1
    while idx < len(lines) and lines[idx][1][0] not in ("h1", "h2"):
        ln, (key, *fields) = lines[idx]
        if key not in _SCALARS or key in scalars:
            raise ValueError(f"unknown or repeated line: {ln!r}")
        scalars[key] = _numbers(ln, fields, int)[0]
        idx += 1
    try:
        n1, n2, c1, c2 = [scalars[key] for key in _SCALARS]
    except KeyError as missing:
        raise ValueError(f"instance file lacks {missing}") from None
    n0 = candidate_n0(n1, n2)
    _check_floors(c1, c2)
    if len(lines) - idx < n1 + n2:  # checked before anything is allocated
        raise ValueError(f"instance file is missing entries: {n1 + n2} costs "
                         f"but {len(lines) - idx} lines after the scalars")
    # line tag -> its costs by index, None until the index has a line
    costs = {"h1": [None] * n1, "h2": [None] * n2}
    for ln, (tag, *fields) in lines[idx:]:
        target = costs.get(tag)
        if target is None:
            raise ValueError(f"unrecognized line: {ln!r}")
        try:  # inline, not _numbers: this loop runs once per cost
            i, value = fields
            i, value = int(i), float(value)
        except ValueError:
            raise ValueError(f"expected 2 number(s) after the tag: "
                             f"{ln!r}") from None
        if not 0 <= i < len(target):
            raise ValueError(f"index out of range: {ln!r}")
        if target[i] is not None:
            raise ValueError(f"index given twice: {ln!r}")
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"costs must be finite and nonnegative: {ln!r}")
        target[i] = value
    if any(None in target for target in costs.values()):
        raise ValueError("instance file is missing entries")
    h1, h2 = (np.array(costs[tag], dtype=float) for tag in ("h1", "h2"))
    return BlpInstance(h1=h1, h2=h2, c1=c1, c2=c2,
                       triangle_edges=build_candidate_complex(n0).triangle_edges)

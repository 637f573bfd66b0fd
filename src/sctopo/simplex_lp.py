"""Self-contained bounded-variable dual simplex for LP relaxation bounds.

Solves ``min c @ x  s.t.  A x <= b,  lower <= x <= upper`` with an
explicit dense basis inverse.  ``A`` is held as its nonzero entries
(:class:`SparseRows`; a dense ``A`` is converted once), so the pivot row,
``A @ x`` and the entering column cost O(entries) instead of O(m n): the
rows of :mod:`sctopo.blp` are two floors plus inclusion rows of two entries
each.  The solver is written for the branch-and-bound use case:

* the all-slack basis is dual feasible whenever each structural variable
  can sit at a bound with the right reduced-cost sign (always true here,
  where costs are nonnegative and variables live in ``[0, 1]``);
* tightening variable bounds never destroys dual feasibility of a basis,
  so a parent node's final basis and its inverse warm-start both children
  (the heap of :mod:`sctopo.blp` holds the parent's :class:`LpResult`,
  one O(m^2) inverse per branched node that still has an open child).
  So a warm start may only tighten the bounds it was solved under; one
  that loosens them can be dual infeasible and raises ``ValueError``;
* appending rows with their slacks basic is also dual feasible, which is
  what lazy constraint generation needs: at a point that looks optimal,
  the ``separate`` callback may return the rows grown with the result
  extended to them (:func:`extend_binv_for_new_rows`), and the solve goes
  on from there;
* every iterate of the dual simplex is a valid lower bound on the LP
  optimum, so the solve can stop early and still return a usable bound.
  It stops with status ``"cutoff"`` as soon as that bound reaches the
  ``cutoff`` passed in: a branch-and-bound node whose bound reaches the
  incumbent's objective is pruned whatever its optimum.

Rounds: the rows passed in make the first round, and each separation that
adds rows starts another, in place.  ``separate`` sees the point the
carried values give as soon as they look optimal, so a round that adds
rows recomputes nothing from the inverse.  The call adopts the basis,
statuses and inverse that ``separate`` returned as they are, without a
copy.  Its per-variable and per-row state (bounds, costs, directions,
reduced costs, basic values) moves at the first round into buffers with
room for twice the rows, doubled whenever a round outgrows them, so a
round writes only the new rows' entries there; a call without rounds
keeps plain arrays.  The inverse itself stays a contiguous ``m x m``
array, which the extension copies.  Grown in place instead, as the
corner of a larger buffer, it costs more than it saves at the sizes of
:mod:`sctopo.blp`: ``take`` copies a non-contiguous array whole, the
full rank-one update runs slower on one, and at ``m`` near 50 the copy
is a small part of an extension's cost.  The new slacks enter basic
with dual 0, so no reduced cost moves, and neither does an old row's
basic value or the objective; each new slack takes ``b_i - A_i x`` at
the carried point, from its row's own entries.
The degenerate-run and reinversion counters restart.  So each round
pivots as a new call warm-started from the returned state would, up to
rounding: that call would recompute ``xB``, the objective and the reduced
costs from the inverse, where the round carries them.  Only when
``separate`` returns None are ``x``, ``xB`` and the objective recomputed
from the inverse ("fresh" values); the stop test runs again on them, and
``separate`` once more on the fresh point, before the call returns
``"optimal"``.  ``_MAX_ITER`` caps the pivots of the whole call, one node
of :mod:`sctopo.blp`.

State carried across pivots: the basis inverse (a rank-one update in
place), the basic values ``xB`` (moved along the entering column), the
reduced costs ``d`` (moved along the pivot row) and the dual objective
``c @ x`` of the basic point.  The objective moves in O(1) per pivot: by
the dual step times the leaving row's violation, and for a long step by
the piecewise sum over the passed breakpoints, whose slopes drop from the
violation by each flipped box (Koberstein, *The dual simplex method,
techniques for a fast and stable implementation*, 2005, ch. 3).  ``xB``,
the objective and ``d`` are computed from the inverse at the start of the
call; all four are recomputed from the basis every ``_REFRESH_EVERY``
pivots of a round, which bounds their drift; ``xB`` and the objective once
more, with the test repeated, before a solve reports ``"optimal"`` or
``"cutoff"``.  So a ``"cutoff"`` bound is ``c @ x`` of the returned point
and reaches the cutoff.  An inverse passed in is used as given, so an
inverse carried from call to call is refreshed only by a round that runs
``_REFRESH_EVERY`` pivots.

Hypersparse update: the entering column of the joint program is nonzero
in a few rows (2-6 of 40-250 at ``n0 >= 15``), and the rank-one update
changes only the rows of the inverse where it is nonzero, besides the
pivot row, which is scaled in place.  So when fewer than a share
``_SPARSE_SHARE`` (a quarter) of the other rows are nonzero, only those
are updated (Hall and McKinnon, *Hyper-sparsity in the revised simplex
method and how to exploit it*, 2005); rows where the column is 0 would
only subtract zeros, so the inverse holds the same values either way.
The density is read from each column, whatever the size of the inverse:
the columns of the ``n0 = 6`` trees are mostly dense (44 of 62 rows) and
keep the whole update.

The tolerances and limits are module constants (``_FEAS_TOL``,
``_MAX_ITER``, ``_BLAND_AFTER``, ``_REFRESH_EVERY``, ``_SPARSE_SHARE``),
read at each call.
``cutoff`` and ``separate`` are part of the problem, not tuning knobs.

Ratio test: the textbook dual ratio test picks the entering variable first.
When that variable has a finite box and moving it across the whole box
would still leave the leaving row infeasible, the bound-flipping (long-step)
test takes over: breakpoints are passed in (ratio, index) order, each
passed variable flips to its other bound (moving ``xB`` along its column),
and the first one whose flip would make the row feasible enters (Fourer,
*Notes on the dual simplex method*, 1994; Koberstein, 2005, ch. 3).  With
the binary boxes of :mod:`sctopo.blp`, a cardinality row short by ``k``
items takes one pivot and ``k - 1`` flips instead of ``k`` pivots.  The
plain test runs first, so a pivot that cannot flip pays two scalar reads
and no sort.  Every iterate stays dual feasible, so early stops still give
valid bounds.

Determinism: entering ties are broken by lowest column index; after a long
degenerate stall the leaving choice switches to Bland's smallest-index
rule, which also guarantees termination, and the ratio test to the plain
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

# nonbasic-at-lower / nonbasic-at-upper / basic
NB_LOWER, NB_UPPER, BASIC = 0, 1, 2

_PIV_TOL = 1e-9
_RATIO_TIE = 1e-12
_FEAS_TOL = 1e-9  # violation let pass: of a bound by xB, of a sign by d
_MAX_ITER = 100_000  # pivots per call (all rounds) before "iteration_limit"
_BLAND_AFTER = 1000  # degenerate pivots in a row before Bland's rule
_REFRESH_EVERY = 200  # pivots between reinversions of the basis
_SPARSE_SHARE = 0.25  # pivot columns nonzero in fewer rows update only those
# direction a nonbasic variable moves off its bound, by status: +1 up from
# its lower bound, -1 down from its upper bound, 0 when basic or fixed
# (a box of zero width, whatever its status)
_TOWARD = np.array([1.0, -1.0, 0.0])


@dataclass
class LpResult:
    """What a solve returns: the point, its bound, and the warm state that
    :func:`solve_lp` can start from: the variable at each basis position,
    the statuses of the structural then the slack columns, and the dense
    basis inverse.  A result handed to ``separate`` holds the solve's live
    state, which the solve goes on changing.

    Contradictory bounds give ``"infeasible"`` with no warm state:
    ``basis``, ``vstat`` and ``binv`` are None."""

    status: str  # "optimal" | "infeasible" | "iteration_limit" | "cutoff"
    x: np.ndarray
    bound: float  # c @ x, a lower bound on the LP optimum; inf when infeasible
    iterations: int
    basis: np.ndarray
    vstat: np.ndarray
    binv: np.ndarray


class SparseRows:
    """The constraint matrix ``A`` as its nonzero entries, in row order.

    ``A[rows[i], cols[i]] = vals[i]``, each position at most once, with
    ``rows`` nondecreasing.  Every product the dual simplex forms takes
    O(entries): the pivot row by one ``np.bincount`` over the columns,
    ``A @ x`` by one over the rows, and a column by one comparison with
    the column indices, with no index kept.  In :mod:`sctopo.blp` the
    entries are the two floors' ``-1`` on every variable and one index
    pair ``(n1 + t, e)`` per inclusion row, so no array here has
    ``m x n`` entries.  ``of`` converts a dense ``A``.
    """

    __slots__ = ("rows", "cols", "vals", "shape")

    def __init__(self, rows, cols, vals, shape):
        self.rows, self.cols, self.vals = rows, cols, vals
        self.shape = shape

    @classmethod
    def of(cls, A):
        """``A`` itself if it is already a :class:`SparseRows`, else its
        nonzero entries."""
        if isinstance(A, cls):
            return A
        A = np.asarray(A, dtype=float)
        rows, cols = np.nonzero(A)
        return cls(rows, cols, A[rows, cols], A.shape)

    def pivot_row(self, y):
        """``y @ [A I]``: the row over the structural, then the slack
        columns."""
        n = self.shape[1]
        row = np.bincount(self.cols, y[self.rows] * self.vals, n + y.size)
        row[n:] = y
        return row

    def matvec(self, x, first=0):
        """``A @ x``, or its rows from ``first`` on from their entries
        alone."""
        rows, cols, vals = self.rows, self.cols, self.vals
        if first:
            lo = rows.searchsorted(first)
            rows, cols, vals = rows[lo:] - first, cols[lo:], vals[lo:]
        return np.bincount(rows, x[cols] * vals, self.shape[0] - first)

    def column(self, q):
        """Rows and values of the nonzero entries of column ``q``, in row
        order."""
        at = (self.cols == q).nonzero()[0]
        return self.rows[at], self.vals[at]

    def basic(self, basis):
        """The entries of ``A`` in the structural columns of ``basis``:
        ``(rows, positions in basis, values)``."""
        pos = np.empty(self.shape[1] + basis.size, np.int64)
        pos.fill(-1)
        pos[basis] = np.arange(basis.size)
        p = pos[self.cols]
        keep = p >= 0
        return self.rows[keep], p[keep], self.vals[keep]


def build_basis_matrix(A, basis):
    """Dense basis matrix from structural columns of ``A`` and slack units."""
    A = SparseRows.of(A)
    m, n = A.shape
    B = np.zeros((m, m))
    rows, at, vals = A.basic(basis)
    B[rows, at] = vals
    slack = np.flatnonzero(basis >= n)
    B[basis[slack] - n, slack] = 1.0
    return B


def extend_binv_for_new_rows(res, A_new_rows, n):
    """A new :class:`LpResult`: ``res`` with appended rows' slacks basic.

    The new basis is the old basic columns (now carrying entries in the
    appended rows) plus the new slack columns.  Block inversion gives
    ``[[binv, 0], [-C @ binv, I]]`` where ``C`` holds the appended-row
    entries of the old basic columns; only the rows of ``binv`` at the
    positions those entries occupy take part in the product.
    """
    basis, binv = res.basis, res.binv
    rows, at, vals = SparseRows.of(A_new_rows).basic(basis)
    k, m = A_new_rows.shape[0], binv.shape[0]
    size = m + k
    C = np.zeros((k, rows.size))  # one column per entry, over binv[at]
    C[rows, np.arange(rows.size)] = -vals
    out = np.zeros((size, size))
    out[:m, :m] = binv
    out[m:, :m] = C @ binv[at]
    out.ravel()[m * size + m :: size + 1] = 1.0  # the new slacks' unit block
    vstat = np.empty(res.vstat.size + k, np.int8)
    vstat[: res.vstat.size] = res.vstat
    vstat[res.vstat.size :] = BASIC
    return LpResult(res.status, res.x, res.bound, res.iterations,
                    np.concatenate([basis, np.arange(n + m, n + size)]),
                    vstat, out)


def solve_lp(c, A, b, lower, upper, warm=None, cutoff=inf, separate=None):
    """Dual simplex on ``min c@x, A x <= b, lower <= x <= upper``.

    ``warm`` is a (dual-feasible) :class:`LpResult` whose basis covers the
    rows of ``A``, or None for the all-slack basis; its arrays are copied,
    never modified (heap siblings share one).  The bounds may only be
    tighter than those it was solved under; a start that is not dual
    feasible under them raises ``ValueError``.  Fixed variables
    (``lower == upper``) never enter the basis.

    The solve stops with status ``"cutoff"`` once the dual objective, a
    lower bound on the optimum, reaches ``cutoff``.  Where the carried
    values look optimal below it, ``separate(res)`` gets them as an
    ``"optimal"`` result and returns None when ``res.x`` violates no
    further row, or ``(A, b, warm)``: the rows of ``A`` followed by new
    ones, and ``res`` extended to them into new arrays
    (:func:`extend_binv_for_new_rows`), which the call pivots in place,
    each new slack at ``b_i - A_i x``; only the new rows' entries are
    written into its other state.  ``separate=None`` adds no rows.
    Either status is returned only on values recomputed from the inverse
    ("fresh") that pass the stop test again, and ``"optimal"`` only once
    ``separate`` returned None on them as well.  A ``warm`` whose basis,
    statuses or inverse do not match the rows of its ``A`` raises
    ``ValueError``.
    """
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    A = SparseRows.of(A)
    b = np.asarray(b, dtype=float)
    n = c.size
    m = A.shape[0]
    # count_nonzero: a C call, where .any() goes through Python
    if np.count_nonzero(lower > upper + _FEAS_TOL):
        return LpResult("infeasible", np.zeros(n), inf, 0, None, None, None)

    if warm is None:
        basis = np.arange(n, n + m, dtype=np.int64)
        vstat = np.empty(n + m, dtype=np.int8)
        vstat[:n] = np.where(c >= 0.0, NB_LOWER, NB_UPPER)
        vstat[n:] = BASIC
        binv = np.eye(m)
    else:
        basis, vstat, binv = _adopt(warm, n, m)
    lower_e = np.concatenate([lower, np.zeros(m)])
    upper_e = np.concatenate([upper, np.full(m, inf)])
    if np.count_nonzero(np.isinf(upper_e[vstat == NB_UPPER])):
        raise ValueError("variable at an infinite upper bound")
    range_e = upper_e - lower_e
    c_e = np.concatenate([c, np.zeros(m)])
    toward = _TOWARD[vstat]
    toward[range_e == 0.0] = 0.0
    lower_b = lower_e[basis]
    upper_b = upper_e[basis]

    x, xB, obj = _fresh_point(binv, A, b, c, vstat, basis, lower_e, upper_e)
    d = _reduced_costs(binv, A, c_e, basis)
    # the per-variable (V) and per-row (P) state moves into buffers with
    # room at the first round, which only writes into it from then on
    cap = m
    if np.count_nonzero(toward * d < -_FEAS_TOL):
        raise ValueError("warm start is not dual feasible under these bounds; "
                         "a warm start may only tighten them")
    fresh = True  # x, xB and obj computed from binv, not carried
    degen_run = 0
    it = start = 0  # reinversions fall every _REFRESH_EVERY pivots from start
    while it < _MAX_ITER:
        below = lower_b - xB
        above = xB - upper_b
        viol = np.maximum(below, above)
        r = int(viol.argmax())
        viol_r = float(viol[r])  # scalars as Python floats: cheaper arithmetic
        if obj >= cutoff or viol_r <= _FEAS_TOL:
            grown = None
            if obj < cutoff and separate is not None:
                # separate at the point the values give, carried or not:
                # a round that adds rows never recomputes them
                if not fresh:
                    x = _nonbasic_values(vstat, basis, lower_e, upper_e)
                    x[basis] = xB
                grown = separate(LpResult("optimal", x[:n], obj, it, basis,
                                          vstat, binv))
            if grown is None:
                if not fresh:
                    # carried values drift; stop only on recomputed ones
                    x, xB, obj = _fresh_point(binv, A, b, c, vstat, basis,
                                              lower_e, upper_e, xB)
                    fresh = True
                    continue
                # x is the point the last recomputation gave: no pivot since
                status = "cutoff" if obj >= cutoff else "optimal"
                return LpResult(status, x[:n], obj, it, basis, vstat, binv)
            # continue on the grown rows in place: their slacks enter basic,
            # which keeps the basis dual feasible, and their duals are 0, so
            # no reduced cost, other basic value or the objective moves
            A, b, warm = grown
            A = SparseRows.of(A)
            b = np.asarray(b, dtype=float)
            old, m = m, A.shape[0]
            basis, vstat, binv = _adopt(warm, n, m, np.asarray)
            if m > cap:
                cap = max(2 * cap, m)
                V = np.empty((6, n + cap))
                V[:, : n + old] = lower_e, upper_e, range_e, c_e, toward, d
                P = np.empty((3, cap))
                P[:, :old] = lower_b, upper_b, xB
            # only the new rows' entries are written
            V[:, n + old : n + m] = _SLACK_STATE
            lower_e, upper_e, range_e, c_e, toward, d = V[:, : n + m]
            P[:2, old:m] = _SLACK_STATE[:2]
            # each new slack is b_i - A_i x at the carried point
            P[2, old:m] = b[old:] - A.matvec(x[:n], old)
            lower_b, upper_b, xB = P[:, :m]
            fresh = False  # the new rows' values come from x, not binv
            degen_run = 0
            start = it
            continue
        if degen_run > _BLAND_AFTER:
            rows = (viol > _FEAS_TOL).nonzero()[0]
            r = int(rows[basis[rows].argmin()])
            viol_r = float(viol[r])

        s = 1.0 if above[r] > below[r] else -1.0
        rho = binv[r] if s > 0 else -binv[r]
        alpha = A.pivot_row(rho)

        cand = (toward * alpha > _PIV_TOL).nonzero()[0]
        if cand.size == 0:
            # dual ray: the primal subproblem has no feasible point
            x_nb = _nonbasic_values(vstat, basis, lower_e, upper_e)
            return LpResult("infeasible", x_nb[:n], inf, it, basis, vstat,
                            binv)

        ratios = np.maximum(d[cand] / alpha[cand], 0.0)
        theta = float(np.minimum.reduce(ratios))
        entering = int(cand[(ratios <= theta + _RATIO_TIE * (1.0 + theta)).argmax()])
        # the dual objective rises by the step times the row's violation
        gain = theta * viol_r
        if (degen_run <= _BLAND_AFTER
                and viol_r - abs(alpha[entering]) * range_e[entering] > _FEAS_TOL):
            # long step: the entering variable would cross its whole box
            # and still leave row r infeasible.  Pass the breakpoints in
            # (ratio, index) order, flipping each variable to its other
            # bound while the row stays infeasible; the first that would
            # fix it enters.  The dual step to its ratio turns the reduced
            # costs of the flipped variables to the sign their new bound
            # needs.
            order = ratios.argsort(kind="stable")
            srt = cand[order]
            left = viol_r - np.add.accumulate(np.abs(alpha[srt])
                                               * range_e[srt])
            stop = (left <= _FEAS_TOL).nonzero()[0]
            k = int(stop[0]) if stop.size else srt.size - 1
            entering = int(srt[k])
            steps = ratios[order[: k + 1]]
            theta = float(steps[-1])
            # piecewise linear: each passed breakpoint lowers the slope
            # of the dual objective from viol_r to left[i]
            gain = float(viol_r * steps[0]
                         + left[:k] @ (steps[1:] - steps[:-1]))
            if k:
                flips = srt[:k]  # structural: a slack's range is infinite
                moved = np.zeros(n)
                moved[flips] = toward[flips] * range_e[flips]
                xB -= binv @ A.matvec(moved)
                vstat[flips] ^= 1  # NB_LOWER <-> NB_UPPER
                toward[flips] = -toward[flips]
        obj += gain

        if entering < n:
            at, vals = A.column(entering)
            col = binv.take(at, 1) @ vals  # take: cheaper than binv[:, at]
        else:
            col = binv[:, entering - n].copy()
        piv = col[r]

        # dual step along the pivot row; the entering reduced cost becomes 0
        d -= (d[entering] / alpha[entering]) * alpha
        d[entering] = 0.0
        # primal step: the leaving variable lands on the bound it violated
        step = (xB[r] - (upper_b[r] if s > 0 else lower_b[r])) / piv
        x_entering = upper_e[entering] if toward[entering] < 0 else lower_e[entering]
        xB -= step * col
        xB[r] = x_entering + step

        binv[r] /= piv
        binv_r = binv[r]
        col[r] = 0.0  # row r is already the new one
        nz = col.nonzero()[0]
        if nz.size < _SPARSE_SHARE * m:
            # hypersparse column: only the rows where it is nonzero change
            if nz.size:
                binv[nz] -= col[nz, None] * binv_r
        else:
            binv -= col[:, None] * binv_r

        leaving = basis[r]
        vstat[leaving] = NB_UPPER if s > 0 else NB_LOWER
        toward[leaving] = -s if range_e[leaving] else 0.0
        vstat[entering] = BASIC
        toward[entering] = 0.0
        basis[r] = entering
        lower_b[r] = lower_e[entering]
        upper_b[r] = upper_e[entering]

        degen_run = degen_run + 1 if theta <= _RATIO_TIE else 0
        it += 1
        if (it - start) % _REFRESH_EVERY == 0:
            binv = np.linalg.inv(build_basis_matrix(A, basis))
            x, xB, obj = _fresh_point(binv, A, b, c, vstat, basis, lower_e,
                                      upper_e, xB)
            d = _reduced_costs(binv, A, c_e, basis, d)
            fresh = True
        else:
            fresh = False

    # out of iterations: the basis is still dual feasible, so its objective
    # (weak duality) is a valid lower bound even though x may violate bounds
    x, _, obj = _fresh_point(binv, A, b, c, vstat, basis, lower_e, upper_e)
    return LpResult("iteration_limit", x[:n], obj, it, basis, vstat, binv)


# V entries of a slack: lower 0, upper and range inf, cost 0, direction
# and reduced cost 0 (basic)
_SLACK_STATE = np.array([[0.0], [inf], [inf], [0.0], [0.0], [0.0]])


def _adopt(warm, n, m, cast=np.array):
    """``warm``'s basis, statuses and inverse through ``cast`` (``np.array``
    copies), checked to cover ``m`` rows and ``n`` structural columns."""
    if (warm.basis.size != m or warm.vstat.size != n + m
            or warm.binv.shape != (m, m)):
        raise ValueError(
            f"warm state does not match the {m} rows of A: its basis has "
            f"{warm.basis.size} entries, its statuses {warm.vstat.size} "
            f"(want {n + m}) and its inverse is {' x '.join(map(str, warm.binv.shape))}")
    return (cast(warm.basis, dtype=np.int64), cast(warm.vstat, dtype=np.int8),
            cast(warm.binv, dtype=float))


def _fresh_point(binv, A, b, c, vstat, basis, lower_e, upper_e, out=None):
    """The basic point from the inverse: ``x`` over structural and slack
    columns, its basic values ``xB`` (written into ``out`` if given) and
    the objective ``c @ x``."""
    n = A.shape[1]
    x = _nonbasic_values(vstat, basis, lower_e, upper_e)
    xB = np.matmul(binv, b - A.matvec(x[:n]), out=out)
    x[basis] = xB
    return x, xB, float(c @ x[:n])


def _nonbasic_values(vstat, basis, lower_e, upper_e):
    """Every variable at its nonbasic bound, with the basic ones zeroed."""
    x = np.where(vstat == NB_UPPER, upper_e, lower_e)
    x[basis] = 0.0
    return x


def _reduced_costs(binv, A, c_e, basis, out=None):
    """``d = c - (c_B B^-1) [A I]`` over structural and slack columns,
    written into ``out`` if given."""
    return np.subtract(c_e, A.pivot_row(c_e[basis] @ binv), out=out)
